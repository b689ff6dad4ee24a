"""End-to-end and per-layer benchmark of the altind CLI on seeded corpora.

Run from the root of an altind checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload gnp-table --seed 1 --seconds 26 --trace 0

The corpus of the workload is generated from the seed and written as graph6;
the program under test only reads that file.  Each round runs, as separate
processes, ``altind verify --jobs 1``, ``verify --jobs 2`` and
``analyze --jobs 1`` on the corpus, timed from process start to exit with
``perf_counter`` and ``os.wait4``, plus two ``verify`` runs on an empty
input for the set-up time.  Rounds repeat while another one fits in
``--seconds``.  Throughputs divide the graphs processed by the wall time
spent on them over all rounds; set-up time and peak RSS are medians.

Every round passes a correctness gate or the run fails: exit codes 0, no
violations or parse errors, byte-identical ``--jobs 1``/``--jobs 2`` output,
``analyze`` agreeing with ``verify`` per graph, and on ``labeled-n6`` the
alternating numbers agreeing with ``altind oracle``.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the same untraced rounds run, then one traced in-process pass
over the corpus (see ``tracing.py``) gives the per-layer metrics; its spans
are written next to the corpus.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``failed`` counts graphs with any check not evaluated or an error record.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import corpus

SETUP_REPS = 2  # per round
DEADLINE_S = 170.0  # every process started must be gone before the 180 s limit
OUT_DIR = ".perfbench_out"


class GateError(Exception):
    """An output of the program failed a correctness check."""


class Cli:
    """Runs ``python -m altind`` from the checkout's sources as a subprocess."""

    def __init__(self, root: Path, out: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.root = root
        self.out = out
        self.deadline = deadline

    def run(self, name: str, *args: str) -> tuple[bytes, float, float]:
        """(stdout, wall seconds, peak RSS in MB) of one invocation."""
        stdout_path = self.out / f"{name}.out"
        stderr_path = self.out / f"{name}.err"
        argv = [sys.executable, "-m", "altind", *args]
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root, start_new_session=True)
            killer = threading.Timer(max(1.0, self.deadline - start), os.killpg,
                                     (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = stderr_path.read_text(errors="replace")[-400:]
            raise GateError(f"altind {' '.join(args)} exited {proc.returncode}: {tail}")
        return stdout_path.read_bytes(), wall, usage.ru_maxrss / 1024.0


def parse_lines(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines()]


def gate(lines: list[str], verify_out: bytes, verify_j2_out: bytes, analyze_out: bytes,
         oracle_out: "bytes | None") -> tuple[int, list[dict], list[dict]]:
    """Check one round's outputs.

    Returns the number of graphs with a check not evaluated or an error
    record, and the parsed verify reports and analyze records.
    """
    if verify_out != verify_j2_out:
        raise GateError("verify --jobs 1 and --jobs 2 outputs differ")
    reports = parse_lines(verify_out)
    summary = reports.pop() if reports else {}
    if summary.get("type") != "summary" or summary["graphs"] != len(lines):
        raise GateError("verify summary missing or counts the wrong number of graphs")
    if summary["parse_errors"] or summary["violations"]:
        raise GateError(f"verify summary: {summary['parse_errors']} parse errors, "
                        f"violations {summary['violations'][:5]}")
    records = parse_lines(analyze_out)
    if len(reports) != len(lines) or len(records) != len(lines):
        raise GateError("one output record per input graph expected")
    failed = 0
    for index, (text, rep, rec) in enumerate(zip(lines, reports, records), start=1):
        if (rep["index"], rep["graph6"], rec["index"], rec["graph6"]) != (index, text, index, text):
            raise GateError(f"record {index} is out of order or names another graph")
        checks = rep["checks"]
        if rep.get("error") or rec["error"] or any(c["error"] for c in checks.values()):
            failed += 1
            continue
        expected = {
            "alternating": (rep["alternating"], rec["alternating"]),
            "decycling_bound": (checks["decycling_bound"]["bound"], 1 << rec["phi"]),
            "chain_lower": (checks["chain_lower"]["bound"], rec["middle_bound"]),
            "chain_upper": (checks["chain_upper"]["bound"], 1 << rec["phi3"]),
        }
        for what, (got, want) in expected.items():
            if got != want:
                raise GateError(f"graph {index} ({text}): verify {what} {got} != analyze {want}")
    if oracle_out is not None:
        oracle = parse_lines(oracle_out)
        if [r["alternating"] for r in oracle] != [r["alternating"] for r in reports]:
            raise GateError("verify alternating numbers disagree with altind oracle")
    return failed, reports, records


def measure(cli: Cli, lines: list[str], corpus_path: Path, seconds: float,
            with_oracle: bool) -> dict:
    """Gated rounds of set-up, verify, verify --jobs 2 and analyze runs.

    Each round also times SETUP_REPS runs of verify on an empty input, so
    set-up is sampled in the same stretches of machine load as the rest.
    """
    empty = cli.out / "empty.g6"
    empty.write_text("")
    cli.run("setup", "verify", "--input", str(empty))  # writes the bytecode cache once
    oracle_out = None
    if with_oracle:
        oracle_out, _, _ = cli.run("oracle", "oracle", "--input", str(corpus_path))
    src = ("--input", str(corpus_path))
    rounds = []
    first = None
    start = perf_counter()
    while not rounds or perf_counter() - start + rounds[-1]["duration"] <= seconds:
        began = perf_counter()
        setup = []
        for _ in range(SETUP_REPS):
            out, wall, _ = cli.run("setup", "verify", "--input", str(empty))
            if json.loads(out)["graphs"] != 0:
                raise GateError("verify on an empty input reported graphs")
            setup.append(wall)
        v1, v1_wall, rss = cli.run("verify_j1", "verify", "--jobs", "1", *src)
        v2, v2_wall, _ = cli.run("verify_j2", "verify", "--jobs", "2", *src)
        an, an_wall, _ = cli.run("analyze", "analyze", "--jobs", "1", *src)
        if first is None:
            failed, reports, records = gate(lines, v1, v2, an, oracle_out)
            first = (v1, an)
        elif v1 != first[0] or v2 != v1 or an != first[1]:
            raise GateError(f"round {len(rounds) + 1} output differs from round 1")
        rounds.append({"setup": setup, "verify": v1_wall, "verify_j2": v2_wall,
                       "analyze": an_wall, "rss": rss, "duration": perf_counter() - began})
    return {
        "setup_s": statistics.median(t for r in rounds for t in r["setup"]),
        "rounds": rounds,
        "failed": failed,
        "reports": reports,
        "records": records,
    }


def mean_wall(rounds: list[dict], key: str) -> float:
    """Mean wall time of one kind of call over the run.

    A throughput is graphs processed over the wall time spent processing
    them, summed over all rounds.  The machine's speed changes in stretches
    of seconds; the mean over a run averages those stretches, where a median
    of a few rounds snaps to whichever speed held most of them.
    """
    return statistics.fmean(r[key] for r in rounds)


def end_to_end(m: dict, graphs: int) -> dict:
    rounds = m["rounds"]
    return {
        "verify_graphs_per_s": (graphs / mean_wall(rounds, "verify"), "graphs/s"),
        "verify_graphs_per_s_j2": (graphs / mean_wall(rounds, "verify_j2"), "graphs/s"),
        "analyze_graphs_per_s": (graphs / mean_wall(rounds, "analyze"), "graphs/s"),
        "setup_s": (m["setup_s"], "s"),
        "peak_rss_mb": (statistics.median(r["rss"] for r in rounds), "MB"),
    }


def traced(m: dict, lines: list[str], root: Path, out: Path) -> dict:
    """Traced in-process pass; per-layer metrics, cross-checked against the CLI."""
    sys.path.insert(0, str(root / "src"))
    import altind

    if Path(altind.__file__).resolve().parent != (root / "src" / "altind").resolve():
        raise GateError(f"traced run imported altind from {altind.__file__}")
    import tracing

    tracer = tracing.Tracer()
    results, overhead_s = tracing.trace_corpus(lines, tracer)
    tracer.write(out / "spans.jsonl")
    for index, (res, rec, rep) in enumerate(zip(results, m["records"], m["reports"]), start=1):
        if res["verify"] != rep:
            raise GateError(f"graph {index}: in-process verify_graph differs from the CLI")
        for key, value in res["analyze"].items():
            if rec[key] != value or res["summary"].get(key, value) != value:
                raise GateError(f"graph {index}: stage {key} disagrees with analyze")

    metrics, notes = tracing.per_layer(tracer, results)
    verify_wall = mean_wall(m["rounds"], "verify")
    metrics["cli.plumbing_s"] = (verify_wall - m["setup_s"] - metrics["graph6.parse_s"][0]
                                 - metrics["bounds.verify_graph_s"][0], "s")
    metrics["cli.j2_speedup"] = (verify_wall / mean_wall(m["rounds"], "verify_j2"), "ratio")
    metrics["trace.overhead_frac"] = (overhead_s / verify_wall, "ratio")
    print("\n".join(notes))
    print(f"traced pass over {len(tracer.spans)} spans; tracer overhead {overhead_s:.4f} s "
          f"against untraced verify --jobs 1 of {verify_wall:.3f} s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "altind" / "__init__.py").is_file():
        print("perfbench: run from the root of an altind checkout (no src/altind here)",
              file=sys.stderr)
        return 2
    out = root / OUT_DIR / args.workload
    out.mkdir(parents=True, exist_ok=True)
    lines = corpus.generate(args.workload, args.seed)
    corpus_path = out / "corpus.g6"
    corpus_path.write_text("".join(line + "\n" for line in lines), encoding="ascii")

    cli = Cli(root, out, perf_counter() + DEADLINE_S)
    try:
        m = measure(cli, lines, corpus_path, args.seconds, args.workload == "labeled-n6")
        metrics = traced(m, lines, root, out) if args.trace else end_to_end(m, len(lines))
    except GateError as exc:
        print(f"CORRECTNESS GATE FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(lines), "failed": len(lines),
                          "metrics": {}}))
        return 1

    declared = json.loads((root / "BENCHMARK.json").read_text())
    declared = {d["name"]: d["unit"] for d in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        print("perfbench: reported metrics differ from those in BENCHMARK.json", file=sys.stderr)
        return 2

    ns = [r["n"] for r in m["records"]]
    es = [r["e"] for r in m["records"]]
    print(f"{args.workload} seed {args.seed}: {len(lines)} graphs, n {min(ns)}..{max(ns)}, "
          f"e {min(es)}..{max(es)}, {len(m['rounds'])} rounds")
    for key in ("verify", "verify_j2", "analyze"):
        print(f"{key} wall per round: " + " ".join(f"{r[key]:.3f}" for r in m["rounds"]) + " s")
    print(f"not_evaluated_frac {m['failed'] / len(lines)} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": len(lines),
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
