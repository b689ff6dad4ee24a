#!/usr/bin/env python3
"""Digest what the corpus subcommands print, to compare two versions of altind.

Usage: python3 scripts/output_digest.py SRC [WORKLOAD ...]

SRC is the ``src`` directory of the version to run.  A WORKLOAD is one of the
benchmark's workloads, built by ``python3 perfbench/corpus.py WORKLOAD 7``;
``enumerate-6``, every labeled graph on 6 vertices from ``altind enumerate
6``; ``ternary``, graphs on up to 62 vertices whose chordless cycles all have
length divisible by 3 (k-trees, twice-subdivided K_m, rings of theta
segments and doubler chains, each also relabeled), built by this script;
``malformed``, a short corpus with blank, malformed, non-ASCII and
over-the-cap lines; or ``generate``, which has no corpus and runs ``generate K --all
--density-k 5`` for K = 1..5 in JSON and CSV.  The default is all of them.
On each corpus it runs ``verify`` and ``analyze`` in JSON and CSV at
``--jobs 1`` and ``2``, with ``--fail-fast``, and at budgets of 20 and 30
expansions with ``--strict``; on the corpora of small graphs it also runs
``oracle`` in JSON and CSV.  It prints one line per run,
``WORKLOAD<TAB>ARGS<TAB>sha256`` of stdout, stderr and the exit code, plus
one line with each corpus's own digest.  Two versions then compare with

    python3 scripts/output_digest.py A/src > a.txt
    python3 scripts/output_digest.py B/src > b.txt
    diff a.txt b.txt
"""

import hashlib
import os
import random
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_WORKLOADS = ("labeled-n6", "gnp-table", "gnp-branch", "adversarial")
WORKLOADS = (*BENCH_WORKLOADS, "enumerate-6", "ternary", "malformed", "generate")
SEED = "7"
# The last three lines are over the 62-vertex cap (3-byte and 6-byte
# headers for n = 63) and a truncated extended header.
MALFORMED = (
    b"Bw\n\nC~\nnot graph6!\n\xff\nDhC\n\n@\nCl\nC~~\n"
    + b"~??~" + b"?" * 326 + b"\n~~?????~\n~?\n"
)
# The oracle enumerates all 2^n vertex subsets, so it runs on these alone.
SMALL_GRAPHS = ("labeled-n6", "enumerate-6", "malformed")


def run(src: str, args: "list[str]") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=600,
    )


def graph6(n: int, edges) -> bytes:
    """The graph6 line of the graph on 0..n-1 with ``edges``, for n <= 62."""
    pairs = {(min(e), max(e)) for e in edges}
    bits = [(i, j) in pairs for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    six = [sum(b << (5 - k) for k, b in enumerate(bits[i:i + 6])) for i in range(0, len(bits), 6)]
    return bytes(63 + c for c in [n, *six]) + b"\n"


def threads(m: int, ends, s: int) -> "tuple[int, list]":
    """Vertices 0..m-1, each pair of ``ends`` joined by a path through s
    fresh vertices."""
    n, edges = m, []
    for i, j in ends:
        path = [i, *range(n, n + s), j]
        n += s
        edges += zip(path, path[1:])
    return n, edges


def k_tree(rng: random.Random, k: int, n: int) -> "tuple[int, list]":
    """K_{k+1}, then each new vertex joined to a k-clique already present."""
    edges = list(combinations(range(k + 1), 2))
    cliques = list(combinations(range(k + 1), k))
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        edges += [(u, v) for u in base]
        cliques += [tuple(w for w in base if w != u) + (v,) for u in base]
    return n, edges


def doubler_chain(k: int) -> "tuple[int, list]":
    """A triangle on 0, 1, 2 with k - 1 doubler gadgets (a triangle with a
    pendant path of three) bridged to vertex 0 at their middle path vertex."""
    n, edges = 3, [(0, 1), (0, 2), (1, 2)]
    for _ in range(k - 1):
        t = n + 1
        edges += [(0, n), (n, t + 4), (t, t + 1), (t, t + 2), (t + 1, t + 2),
                  (t, t + 3), (t + 3, t + 4), (t + 4, t + 5)]
        n += 7
    return n, edges


def ternary_corpus() -> bytes:
    """Graphs whose chordless cycles all have length divisible by 3, so the
    cycle-length hypothesis turns on whether some cycle has a chord; each
    is followed by a relabeled copy."""
    rng = random.Random(int(SEED))
    graphs = [k_tree(rng, k, n) for k in range(1, 6) for n in (k + 1, 12, 20, 30)]
    graphs.append(k_tree(rng, 1, 62))
    graphs += [threads(m, combinations(range(m), 2), 2) for m in range(3, 7)]
    graphs += [threads(r, [(i, (i + 1) % r) for i in range(r)] * 2, 2) for r in range(4, 9)]
    graphs += [doubler_chain(k) for k in range(1, 10)]
    out = b""
    for n, edges in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        out += graph6(n, edges) + graph6(n, [(perm[u], perm[v]) for u, v in edges])
    return out


def corpus(src: str, workload: str) -> bytes:
    if workload == "malformed":
        return MALFORMED
    if workload == "ternary":
        return ternary_corpus()
    if workload == "enumerate-6":
        proc = run(src, ["-m", "altind", "enumerate", "6"])
    else:
        proc = run(src, [str(ROOT / "perfbench" / "corpus.py"), workload, SEED])
    if proc.returncode:
        sys.exit(f"cannot build {workload}: {proc.stderr.decode(errors='replace')}")
    return proc.stdout


def runs(workload: str):
    if workload == "generate":
        for k in range(1, 6):
            for fmt in ("json", "csv"):
                yield ["generate", str(k), "--all", "--density-k", "5", "--format", fmt]
        return
    for command in ("verify", "analyze"):
        for fmt in ("json", "csv"):
            for jobs in ("1", "2"):
                yield [command, "--format", fmt, "--jobs", jobs]
        yield [command, "--fail-fast"]
        for budget in ("20", "30"):
            yield [command, "--budget-expansions", budget, "--strict"]
    if workload in SMALL_GRAPHS:
        for fmt in ("json", "csv"):
            yield ["oracle", "--format", fmt]


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def main() -> int:
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    src = str(Path(sys.argv[1]).resolve())
    workloads = sys.argv[2:] or WORKLOADS
    for workload in workloads:
        if workload not in WORKLOADS:
            sys.exit(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            source = []
            if workload != "generate":
                data = corpus(src, workload)
                path = Path(tmp) / f"{workload}.g6"
                path.write_bytes(data)
                print(f"{workload}\tcorpus\t{digest(data)}", flush=True)
                source = ["--input", str(path)]
            for args in runs(workload):
                proc = run(src, ["-m", "altind", *args, *source])
                line = digest(proc.returncode, proc.stdout, proc.stderr)
                print(f"{workload}\t{' '.join(args)}\t{line}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
