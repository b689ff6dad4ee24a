"""Smoke tests: each experiment script runs at its smallest setting, the
exhaustive verifier fails on a broken run, and the benchmark's traced pass
runs on two graphs."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import altind

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(altind.__file__).resolve().parents[1])


def run_script(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bound_gap_survey_counts_cyclomatic_applicability():
    # Of the 1,024 labeled graphs on 5 vertices, 142 have 2^phi3 below 2^phi,
    # 66 a middle bound below 2^phi3 and 163 |I(G;-1)| equal to it; of the
    # 488 with a cycle length not divisible by 3, 191 have 2^phi3 below
    # 2^nu - nu.
    lines = run_script("bound_gap_survey.py", "--n", "5").splitlines()
    assert len(lines) == 5
    assert [line.split()[-1] for line in lines[:4]] == ["1024", "142", "66", "163"]
    assert lines[4].endswith("191 of 488")


@pytest.mark.parametrize(
    "name, args",
    [
        ("verify_small_corpus.py", ("--max-n", "4")),
        ("realize_density_targets.py", ("--max-k", "2")),
    ],
)
def test_script_runs(name, args):
    run_script(name, *args)


def test_output_digest_has_one_line_per_run():
    # gnp-branch has 8 graphs: the corpus's digest, then seven runs each of
    # verify and analyze; the oracle skips graphs this large.
    lines = run_script("output_digest.py", SRC, "gnp-branch").splitlines()
    rows = [line.split("\t") for line in lines]
    assert [args for _, args, _ in rows[:3]] == [
        "corpus", "verify --format json --jobs 1", "verify --format json --jobs 2",
    ]
    assert len(rows) == 15 and len({args for _, args, _ in rows}) == 15
    assert all(workload == "gnp-branch" and len(digest) == 64 for workload, _, digest in rows)


def test_benchmark_tracing_harness_runs(monkeypatch):
    # The benchmark's traced pass imports and calls package internals by
    # name; run it on two graphs, so a change that breaks it fails here too.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    results, _overhead = tracing.trace_corpus(["Bw", "C~"], tracer)
    assert len(results) == 2 and all(isinstance(r, dict) for r in results)
    assert [r["chordless"] for r in results] == [1, 4]
    metrics, _notes = tracing.per_layer(tracer, results)
    assert metrics["cycles.chordless"] == (5, "count")


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_small_corpus_fails_on_internal_errors_and_unevaluated_checks(monkeypatch, capsys):
    script = _load_script("verify_small_corpus.py")
    monkeypatch.setattr(sys, "argv", ["verify_small_corpus.py", "--max-n", "3"])
    assert script.main() == 0
    assert "no violations" in capsys.readouterr().out

    broken = altind.InternalError(0, "Bw", 3, "witness failed its re-check")
    monkeypatch.setattr(
        script, "run_corpus", lambda lines, jobs: ([broken], [], altind.summarize([broken]))
    )
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "internal errors:" in out and "witness failed its re-check" in out

    # One expansion per graph leaves every graph with a cycle unevaluated.
    real = altind.run_corpus
    monkeypatch.setattr(
        script, "run_corpus", lambda lines, jobs: real(lines, jobs, budget_limit=1)
    )
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "checks not evaluated" in out and "no violations" not in out
