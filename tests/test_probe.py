"""The benchmark's tracing probe still finds every name it patches.

`perfbench/probe.py` wraps icflow functions and methods from outside, by
name; a rename or deletion in the program breaks it. This runs it on a small
Lasso config that reaches the store, the simulator and SAP, on the replay of
that config's trace, and on an LDA config that reads its corpus from a file.
"""
import json
import os
import pathlib
import subprocess
import sys

import icflow
from icflow import datasets
from icflow.cli import EXIT_OK, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "probe.py"
CONFIG = ("[data]\nn = 60\nm = 40\nk_true = 3\n[algorithm]\nalgorithm = lasso\n"
          "[runtime]\np = 4\ntopology = halton\nscheduler = sap\nmax_clocks = 4\n")


def _probe(tmp_path, mode, *icflow_args):
    """The probe's report on one `icflow` command, which must exit 0."""
    report = tmp_path / f"{mode}.json"
    src = os.path.dirname(os.path.dirname(icflow.__file__))
    proc = subprocess.run(
        [sys.executable, str(PROBE), "--mode", mode, "--report", str(report), "--",
         *icflow_args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


def _run_args(tmp_path):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(CONFIG)
    return ["--quiet", "--out-dir", str(tmp_path / "out"), "run", str(cfg)]


def test_probe_traces_every_layer(tmp_path):
    names = {row[0] for row in _probe(tmp_path, "trace", *_run_args(tmp_path))["agg"]}
    want = {"ssp.apply", "ssp.gate", "ssp.read", "ssp.commit", "simcluster.run",
            "sap.rounds"}
    assert want <= names, want - names


def test_probe_traces_the_replay(tmp_path):
    assert main(_run_args(tmp_path)) == EXIT_OK
    report = _probe(tmp_path, "trace", "--quiet", "replay",
                    str(tmp_path / "out" / "trace.txt"), "--staleness", "0",
                    "--workers", "4")
    names = {row[0] for row in report["agg"]}
    assert {"ssp.parse", "ssp.replay"} <= names, names


def test_probe_stamps_the_run_loop(tmp_path):
    loop = _probe(tmp_path, "stamp", *_run_args(tmp_path))["loop"]
    assert loop["t0"] < loop["t1"], loop


def test_probe_times_the_trace_write_and_the_problem_build(tmp_path):
    # `icflow run` writes trace.txt inside `Trace.to_text` and builds the
    # problem in `LassoProblem.from_raw`, the names the probe times as
    # ssp.serialize and lasso.problem; moved elsewhere, they would read 0
    agg = _probe(tmp_path, "trace", *_run_args(tmp_path))["agg"]
    for name in ("ssp.serialize", "lasso.problem"):
        rows = [row for row in agg if row[0] == name]
        assert sum(row[2] for row in rows) >= 1, name
        assert sum(row[4] for row in rows) > 0, name


def test_probe_traces_and_stamps_an_lda_run_from_a_docs_file(tmp_path):
    # the corpus is parsed inside `datasets.read_corpus`, the name the probe
    # times as cli.read; parsed elsewhere, the read would count as build time
    docs = datasets.write_corpus(datasets.gen_lda(30, 40, 3, 10, seed=1),
                                 str(tmp_path))["docs"]
    cfg = tmp_path / "lda.cfg"
    cfg.write_text(f"[data]\ndocs = {docs}\n[algorithm]\nalgorithm = lda\n"
                   "topics = 4\nepochs = 2\n[runtime]\np = 2\n")
    args = ["--quiet", "--out-dir", str(tmp_path / "out"), "run", str(cfg)]
    agg = _probe(tmp_path, "trace", *args)["agg"]
    for name in ("cli.read", "lda.rotation"):
        rows = [row for row in agg if row[0] == name]
        assert sum(row[2] for row in rows) == 1, name
        assert sum(row[4] for row in rows) > 0, name
    loop = _probe(tmp_path, "stamp", *args)["loop"]
    assert loop["t0"] < loop["t1"], loop
