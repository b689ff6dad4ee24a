import csv
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import altind
from altind.cli import main
from altind import cycle_graph, enumerate_labeled_graphs, to_graph6


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        data = stdin if isinstance(stdin, bytes) else stdin.encode("ascii")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_triangle(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["analyze"], stdin="Bw\n", monkeypatch=monkeypatch)
    assert code == 0
    record = json.loads(out.strip())
    assert record["alternating"] == -2
    assert record["phi"] == 1 and record["phi3"] == 1 and record["nu"] == 1
    assert record["ternary"] is False
    assert record["middle_bound"] == 2
    assert record["independent_sets"] == 4


def test_analyze_single_vertex(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["analyze"], stdin="@\n", monkeypatch=monkeypatch)
    assert code == 0
    record = json.loads(out.strip())
    assert record["alternating"] == 0
    assert record["phi"] == 0 and record["phi3"] == 0 and record["nu"] == 0
    assert record["ternary"] is True


def test_analyze_empty_input(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["analyze"], stdin="", monkeypatch=monkeypatch)
    assert code == 0 and out == ""


def test_analyze_csv(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["analyze", "--format", "csv"], stdin="Bw\n", monkeypatch=monkeypatch
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("index,graph6,n,e,q,nu,ternary")
    assert row.startswith("1,Bw,3,3,1,1,false,-2,4")


def test_verify_corpus_exits_zero(capsys, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.g6"
    lines = [to_graph6(g) for n in range(4) for g in enumerate_labeled_graphs(n)]
    corpus.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, ["verify", "--input", str(corpus)])
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[-1]["type"] == "summary"
    assert rows[-1]["graphs"] == len(lines)
    assert rows[-1]["violations"] == []


def test_verify_tight_triangle(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["verify"], stdin="Bw\n", monkeypatch=monkeypatch)
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["checks"]["chain_upper"]["tight"] == 1


def test_verify_malformed_line_exit_2(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, ["verify"], stdin="Bw\nnot graph6!\n", monkeypatch=monkeypatch
    )
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command", ["verify", "analyze", "oracle"])
def test_closed_stdin_is_an_unreadable_input(capsys, monkeypatch, command):
    # A process started with fd 0 closed (``altind verify <&-``) has no
    # sys.stdin at all.
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run_cli(capsys, [command])
    assert (code, out) == (2, "")
    assert err == "cannot read -: stdin is closed\n"


def test_verify_strict_budget_exit_3(capsys, monkeypatch):
    code, _, _ = run_cli(
        capsys,
        ["verify", "--strict", "--budget-expansions", "2"],
        stdin=to_graph6(cycle_graph(9)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 3


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "2"])
    assert code == 0 and out.splitlines() == ["A?", "A_"]
    code, out, _ = run_cli(capsys, ["enumerate", "3"])
    assert code == 0 and len(out.splitlines()) == 8


def test_enumerate_refuses_large_n(capsys):
    code, _, err = run_cli(capsys, ["enumerate", "7"])
    assert code == 2 and "capped" in err


def test_generate_all_k1(capsys):
    code, out, _ = run_cli(capsys, ["generate", "1", "--all"])
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["q"] for r in rows] == [-2, -1, 0, 1, 2]
    assert all(r["k"] == 1 for r in rows)


def test_generate_single_target(capsys):
    code, out, _ = run_cli(capsys, ["generate", "2", "4"])
    assert code == 0
    record = json.loads(out.strip())
    assert record["q"] == 4 and record["graph6"]


def test_generate_csv_rows_match_json_records(capsys):
    # Both formats go through one writer: a CSV row holds the JSON record's
    # fields, its steps joined as "op arg ...;op arg ...".
    code, out, _ = run_cli(capsys, ["generate", "2", "--all"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    code, out, _ = run_cli(capsys, ["generate", "2", "--all", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "k,q,n,graph6,steps"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(records) == 9
    for row, record in zip(rows, records):
        steps = ";".join(" ".join(str(x) for x in step) for step in record["steps"])
        assert row == {**{key: str(record[key]) for key in ("k", "q", "n", "graph6")},
                       "steps": steps}


def test_generate_precondition(capsys):
    code, _, err = run_cli(capsys, ["generate", "1", "3"])
    assert code == 2 and "2^k" in err


def test_generate_needs_q_or_all(capsys):
    code, _, err = run_cli(capsys, ["generate", "1"])
    assert code == 2 and "either" in err


@pytest.mark.parametrize("argv", [["4", "--all"], ["0", "1"], ["-1", "--all"]])
def test_generate_k_out_of_range_is_an_input_error(argv):
    # Run as a process, so an uncaught exception would show as a traceback
    # on stderr and exit 1.
    src = str(Path(altind.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "altind", "generate", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "k must be between 1 and --density-k = 3\n"


def test_generate_recipe_sidecar(capsys, tmp_path):
    sidecar = tmp_path / "recipes.jsonl"
    code, out, _ = run_cli(
        capsys, ["generate", "1", "-2", "--recipe-out", str(sidecar)]
    )
    assert code == 0
    assert out.strip() == "Bw"
    record = json.loads(sidecar.read_text().strip())
    assert record["steps"] == [["base", "C3"]]


def test_generate_unwritable_recipe_out_is_an_input_error(tmp_path):
    # Run as a process, so an uncaught exception would show as a traceback;
    # the sidecar is opened before any target is realized.
    src = str(Path(altind.__file__).resolve().parents[1])
    target = tmp_path / "missing" / "x.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "altind", "generate", "1", "--all", "--recipe-out", str(target)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"cannot write {target}: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_generate_recipe_out_rejects_csv(tmp_path):
    # --recipe-out fixes stdout to bare graph6 lines, so --format csv would
    # be ignored; it is refused before the sidecar is opened.
    src = str(Path(altind.__file__).resolve().parents[1])
    target = tmp_path / "r.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "altind", "generate", "1", "-2",
         "--recipe-out", str(target), "--format", "csv"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not target.exists()


@pytest.mark.parametrize("mode", ["json", "csv", "recipe-out"])
def test_generate_unencodable_graph_is_a_failed_target(capsys, tmp_path, mode):
    # k = 9, q = 0 realizes nine doublers on a hub, 64 vertices, beyond
    # what graph6 output allows; q = 512 gives 62 and still encodes.
    sidecar = tmp_path / "r.jsonl"
    flags = {"json": [], "csv": ["--format", "csv"], "recipe-out": ["--recipe-out", str(sidecar)]}
    expected_out = "k,q,n,graph6,steps\n" if mode == "csv" else ""
    code, out, err = run_cli(capsys, ["generate", "9", "0", "--density-k", "9", *flags[mode]])
    assert (code, out) == (1, expected_out)
    assert err == "realization failed for (k=9, q=0): graph on 64 vertices exceeds the configured cap 62\n"
    assert not sidecar.exists() or sidecar.read_text() == ""
    code, out, _ = run_cli(capsys, ["generate", "9", "512", "--density-k", "9"])
    assert code == 0 and json.loads(out)["n"] == 62


@pytest.mark.parametrize("recipe_out", [False, True])
def test_generate_all_skips_an_unencodable_target(capsys, monkeypatch, tmp_path, recipe_out):
    # A sweep at k = 9 takes tens of seconds, so the k = 1 sweep stands in,
    # with target 0 realized by a 64-vertex graph.
    import altind.constructions as constructions
    from altind.graph import empty_graph

    real = constructions.realize

    def realize(k, q, **kwargs):
        graph, recipe = real(k, q, **kwargs)
        return (empty_graph(64), recipe) if q == 0 else (graph, recipe)

    monkeypatch.setattr(constructions, "realize", realize)
    sidecar = tmp_path / "r.jsonl"
    argv = ["generate", "1", "--all"] + (["--recipe-out", str(sidecar)] if recipe_out else [])
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert err == "realization failed for (k=1, q=0): graph on 64 vertices exceeds the configured cap 62\n"
    if recipe_out:
        assert len(out.splitlines()) == 4
        out = sidecar.read_text()
    assert [json.loads(line)["q"] for line in out.splitlines()] == [-2, -1, 1, 2]


def test_oracle_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["oracle"], stdin="Bw\n", monkeypatch=monkeypatch)
    assert code == 0
    record = json.loads(out.strip())
    assert record["coefficients"] == [1, 3] and record["alternating"] == -2

    code, out, err = run_cli(
        capsys, ["oracle", "--format", "csv"], stdin="Bw\n", monkeypatch=monkeypatch
    )
    assert (code, err) == (0, "")
    assert out == "index,graph6,n,coefficients,alternating,error\n1,Bw,3,1 3,-2,\n"

    # Past the oracle's cap the graph gets a record with the refusal, not a
    # failed run.
    big = to_graph6(cycle_graph(26))
    code, out, err = run_cli(capsys, ["oracle"], stdin=big + "\n", monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "index": 1,
        "graph6": big,
        "n": 26,
        "coefficients": None,
        "alternating": None,
        "error": "oracle enumeration is limited to n <= 25 (got n=26)",
    }


def test_verify_jobs_output_identical(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    lines = [to_graph6(g) for g in enumerate_labeled_graphs(3)]
    corpus.write_text("\n".join(lines) + "\n")
    code1, out1, _ = run_cli(capsys, ["verify", "--input", str(corpus), "--jobs", "1"])
    code2, out2, _ = run_cli(capsys, ["verify", "--input", str(corpus), "--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2

    # Blank lines, a malformed line in the middle, a non-ASCII line and a
    # malformed last line; --fail-fast leaves two graphs before the first.
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"Bw\n\nC~\nnot graph6!\n\xff\nDhC\n\n@\nCl\nC~~\n")
    for path in (corpus, bad):
        for command in ("verify", "analyze"):
            for fmt in ("json", "csv"):
                for fail_fast in ([], ["--fail-fast"]):
                    argv = [command, "--input", str(path), "--format", fmt, *fail_fast]
                    serial = run_cli(capsys, argv + ["--jobs", "1"])
                    assert run_cli(capsys, argv + ["--jobs", "2"]) == serial
                    assert serial[0] == (2 if path == bad else 0)


@pytest.mark.parametrize("command, stage", [("verify", "verify_graph"), ("analyze", "_stages")])
def test_each_record_is_written_before_the_next_graph_starts(monkeypatch, command, stage):
    import altind.bounds

    out = io.StringIO()
    written_at_start = []
    run_stage = getattr(altind.bounds, stage)

    def spy(*args, **kwargs):
        written_at_start.append(out.getvalue().count("\n"))
        return run_stage(*args, **kwargs)

    monkeypatch.setattr(altind.bounds, stage, spy)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"Bw\nC~\nCl\n")))
    monkeypatch.setattr(sys, "stdout", out)
    assert main([command, "--jobs", "1"]) == 0
    assert written_at_start == [0, 1, 2]


def test_jobs_start_no_more_workers_than_graphs(capsys, tmp_path, monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nC~\nCl\n")
    code, out, _ = run_cli(capsys, ["verify", "--input", str(corpus), "--jobs", "64"])
    assert code == 0 and len(out.splitlines()) == 4
    # Three graphs: the parent runs one, so two workers.
    assert len(forks) == 2

    forks.clear()
    corpus.write_text("Bw\n")
    code, out, _ = run_cli(capsys, ["verify", "--input", str(corpus), "--jobs", "64"])
    assert code == 0 and len(out.splitlines()) == 2
    assert forks == []


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_run_leaves_no_child_process(capsys, tmp_path, monkeypatch):
    import altind.bounds

    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nC~\nCl\n")
    for argv in (["verify", "--jobs", "2"], ["analyze", "--jobs", "3"]):
        code, out, _ = run_cli(capsys, argv + ["--input", str(corpus)])
        assert code == 0 and len(out.splitlines()) >= 3
        _assert_no_child_process()

    # Closed after its first record, before the worker's record is read.
    records, _ = altind.bounds._corpus_records(
        altind.bounds._verify_worker, ["Bw", "C~", "Cl"], None, 2
    )
    assert next(records).graph6 == "Bw"
    records.close()
    _assert_no_child_process()

    # At --jobs 2 the second graph, K4, runs in the worker.
    stages = altind.bounds._stages

    def failing(g, limit):
        if g.edge_count() == 6:
            raise RuntimeError("stage failed on K4")
        return stages(g, limit)

    monkeypatch.setattr(altind.bounds, "_stages", failing)
    for command in ("verify", "analyze"):
        with pytest.raises(RuntimeError, match="^stage failed on K4$"):
            main([command, "--input", str(corpus), "--jobs", "2"])
        _assert_no_child_process()

    # A worker that cannot send its exception ends its pipe early.
    class LocalError(Exception):
        pass

    def unpicklable(g, limit):
        if g.edge_count() == 6:
            raise LocalError("a local class does not pickle")
        return stages(g, limit)

    monkeypatch.setattr(altind.bounds, "_stages", unpicklable)
    with pytest.raises(RuntimeError, match="^--jobs worker 1 exited before sending record 1$"):
        main(["verify", "--input", str(corpus), "--jobs", "2"])
    _assert_no_child_process()


@pytest.mark.parametrize("argv", [["enumerate", "6"], ["verify", "--jobs", "2"]])
def test_closed_stdout_exits_1_quietly(tmp_path, argv):
    # A reader that stops early (``altind enumerate 6 | head -1``) closes the
    # pipe while altind still writes.  verify gets every labeled graph on
    # n <= 5, whose records overflow a pipe buffer.  The run is the leader
    # of its own process group, so a worker left behind would still be in it.
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(
        to_graph6(g) + "\n" for n in range(6) for g in enumerate_labeled_graphs(n)
    ))
    src = str(Path(altind.__file__).resolve().parents[1])
    with open(corpus, "rb") as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "altind", *argv],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            start_new_session=True,
        )
    assert proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=120)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    with proc.stderr:
        assert (code, proc.stderr.read()) == (1, b"")


def test_jobs_workers_exit_when_the_parent_is_killed(tmp_path):
    # A parent killed without its cleanup (SIGKILL, an OOM kill) cannot kill
    # its workers, so each must exit on EPIPE at its next write.  Each
    # worker's records on every labeled graph with n <= 5 overflow a pipe
    # buffer: a worker that still held a read end would block on it forever.
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(
        to_graph6(g) + "\n" for n in range(6) for g in enumerate_labeled_graphs(n)
    ))
    src = str(Path(altind.__file__).resolve().parents[1])
    with open(corpus, "rb") as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "altind", "verify", "--jobs", "3"],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": src},
            start_new_session=True,
        )
    try:
        assert proc.stdout.readline()
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a --jobs worker outlived its parent"
            time.sleep(0.05)
    finally:
        proc.stdout.close()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_jobs_above_one_need_fork(capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    code, out, err = run_cli(capsys, ["verify", "--jobs", "2"], stdin="Bw\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "--jobs above 1 needs os.fork, which this platform lacks\n")
    assert run_cli(capsys, ["verify", "--jobs", "1"], stdin="Bw\n", monkeypatch=monkeypatch)[0] == 0


def test_invalid_budget_rejected(capsys, monkeypatch):
    for command in ("verify", "analyze"):
        for flag in ("--budget-expansions", "--jobs"):
            code, out, err = run_cli(
                capsys, [command, flag, "0"], stdin="Bw\n", monkeypatch=monkeypatch
            )
            assert (code, out, err) == (2, "", "budgets and job counts must be positive\n")


def test_import_loads_no_numpy(tmp_path):
    # Every CLI run pays the package import before its first graph: numpy
    # alone would be most of it, and a verify or analyze uses neither the
    # dataclass machinery nor the constructions.  A parallel run forks its
    # workers without multiprocessing, whose import and pool start-up cost
    # more than a short corpus's work.
    src = str(Path(altind.__file__).resolve().parents[1])
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nC~\nCl\n")
    parallel_run = (
        "import io, sys, altind.cli; out, sys.stdout = sys.stdout, io.StringIO();"
        f" code = altind.cli.main(['verify', '--jobs', '2', '--input', {str(corpus)!r}]);"
        " lines = sys.stdout.getvalue().count('\\n'); sys.stdout = out; print(code, lines)"
    )
    for code, expected in (("import sys, altind.cli", ""), (parallel_run, "0 4\n")):
        probe = subprocess.run(
            [
                sys.executable,
                "-c",
                code + "; print(sorted(m for m in ('numpy', 'multiprocessing',"
                " 'dataclasses', 'altind.constructions') if m in sys.modules))",
            ],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert probe.stdout == expected + "[]\n"


def test_construction_names_still_exported():
    from altind import GadgetRecipe, realize
    from altind.constructions import GadgetRecipe as recipe_type, realize as realize_fn

    assert (GadgetRecipe, realize) == (recipe_type, realize_fn)
    assert altind.__all__ == [
        "Budget", "BudgetExceededError", "DEFAULT_EXPANSIONS", "Graph", "bits",
        "mask_of", "empty_graph", "path_graph", "cycle_graph", "complete_graph",
        "disjoint_union", "Graph6Error", "parse_graph6", "to_graph6", "iter_graph6",
        "enumerate_labeled_graphs", "ORACLE_CAP", "independence_polynomial",
        "alternating_number", "independent_set_count", "oracle_polynomial", "CycleReport",
        "chordless_cycles", "is_ternary", "has_cycle_length_not_div3",
        "DecyclingResult", "cyclomatic_number", "min_decycling",
        "min_ternary_decycling", "minimal_ternary_decycling_sets", "middle_bound",
        "decycling_summary", "BoundsReport", "CheckResult", "CHECK_NAMES",
        "InternalError", "verify_graph", "run_corpus", "summarize",
        "ConstructionError", "GadgetRecipe", "build_recipe", "attach_pendant_path",
        "bridge_gadget", "glue_triangle", "doubler_chain", "realize",
    ]
    assert all(hasattr(altind, name) for name in altind.__all__)
    with pytest.raises(AttributeError):
        altind.no_such_name


@pytest.mark.parametrize("command", ["analyze", "verify", "oracle"])
def test_non_ascii_byte_is_a_line_error(capsys, tmp_path, monkeypatch, command):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"Bw\n\xff\n")
    code, _, err = run_cli(capsys, [command, "--input", str(bad)])
    assert code == 2 and "line 2: invalid graph6 byte" in err
    from_stdin = run_cli(capsys, [command], stdin=b"Bw\n\xff\n", monkeypatch=monkeypatch)
    assert (from_stdin[0], from_stdin[2]) == (code, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--jobs", "2"],
        ["oracle", "--strict"],
        ["analyze", "--density-k", "3"],
        ["verify", "--cycle-cap", "5"],
        ["generate", "1", "--all", "--input", "corpus.g6"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _fail_on_k4(monkeypatch):
    """Make the phi solve trip its witness re-check on K4 alone."""
    import altind.bounds
    import altind.decycling

    solve = altind.decycling._phi_half

    def failing(g, census, budget):
        if g.edge_count() == 6:
            raise AssertionError("decycling witness failed the acyclicity re-check")
        return solve(g, census, budget)

    monkeypatch.setattr(altind.bounds, "_phi_half", failing)
    monkeypatch.setattr(altind.decycling, "_phi_half", failing)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_internal_error_is_one_record(capsys, tmp_path, monkeypatch, command, jobs):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nC~\nCl\n")
    argv = [command, "--input", str(corpus), "--jobs", jobs]
    code, clean, clean_err = run_cli(capsys, argv)
    assert code == 0 and "internal_errors" not in clean and clean_err == ""

    _fail_on_k4(monkeypatch)
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert err == (
        "INTERNAL ERROR: graph 2 (C~): decycling witness failed the acyclicity re-check\n"
    )
    records = [json.loads(line) for line in out.splitlines()]
    expected = [json.loads(line) for line in clean.splitlines()]
    assert records[1] == {
        "index": 2,
        "graph6": "C~",
        "n": 4,
        "internal_error": "decycling witness failed the acyclicity re-check",
    }
    assert [records[0], records[2]] == [expected[0], expected[2]]
    if command == "verify":
        summary = records[3]
        assert summary["graphs"] == 3 and summary["violations"] == []
        assert summary["internal_errors"] == [records[1]]
        assert summary["checks"]["decycling_bound"]["applicable"] == 2

    code, csv_out, _ = run_cli(capsys, argv + ["--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert code == 1 and len(rows) == 3
    errors = {k: v for k, v in rows[1].items() if k.endswith("error")}
    assert errors and set(errors.values()) == {
        "internal error: decycling witness failed the acyclicity re-check"
    }
    assert (rows[1]["index"], rows[1]["graph6"], rows[1]["n"]) == ("2", "C~", "4")


# sha256 of the exit code, stdout and stderr of each run on _pinned_corpus,
# the same at --jobs 1 and 2.  Any change to what verify or analyze print
# moves these, and must re-pin them on purpose.
_PINNED_OUTPUT = {
    ("verify", "json", "default"): "205ec34a007c2e74c3edb3ecceb0631d90d46e19e1f42e31bfa41caf221a8642",
    ("verify", "json", "budget20"): "c9ee3340c061f18b89733f4fea156fd71563ed4627433db9d0d03c6c6d27333f",
    ("verify", "csv", "default"): "cba61681587d54d9fdee1569c799c3bce97f1b38d93c8159c9745a7c31137735",
    ("verify", "csv", "budget20"): "6a384bc3dd28b5a66c9ab90f485dd9db79d2292e87b9092be31916a241a36aeb",
    ("analyze", "json", "default"): "b558132073b35d223c7fe3f5426c2c25df9c7279487c7cbd8b987fec25b6b1f3",
    ("analyze", "json", "budget20"): "b429181e8b1e2e1fcd5112af6b21388a84b2f2c742bba5a366308f16bab6d9f8",
    ("analyze", "csv", "default"): "40924b79c4e0d9e0999078f45feaad92ea229c7ca4fcc1b25cbc1270491d0ec9",
    ("analyze", "csv", "budget20"): "a3716b0b78a14c09cd7973827e9d187d1d191d38dfbb186afde305dcb57ff929",
}
_PINNED_BUDGETS = {"default": [], "budget20": ["--budget-expansions", "20", "--strict"]}


def _pinned_corpus() -> str:
    """Every labeled graph on at most 4 vertices, K4 and K5 each subdivided
    once, doubler_chain(3) and one malformed line."""
    from altind import doubler_chain
    from conftest import subdivided_complete

    graphs = [g for n in range(5) for g in enumerate_labeled_graphs(n)]
    graphs += [subdivided_complete(4, 1), subdivided_complete(5, 1), doubler_chain(3)[0]]
    lines = [to_graph6(g) for g in graphs]
    lines.insert(40, "not graph6!")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("budget", list(_PINNED_BUDGETS))
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_pinned_output(capsys, tmp_path, command, fmt, jobs, budget):
    import hashlib

    corpus = tmp_path / "pinned.g6"
    corpus.write_text(_pinned_corpus())
    argv = [command, "--input", str(corpus), "--format", fmt, "--jobs", jobs,
            *_PINNED_BUDGETS[budget]]
    code, out, err = run_cli(capsys, argv)
    run = f"{code}\n{out}\0{err}".encode("ascii")
    assert hashlib.sha256(run).hexdigest() == _PINNED_OUTPUT[command, fmt, budget]
