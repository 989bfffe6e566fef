"""The benchmark's tracing probe still finds every name it patches.

`perfbench/probe.py` wraps icflow functions and methods from outside, by
name; a rename or deletion in the program breaks it. This runs it once on a
small Lasso config that reaches the store, the simulator and SAP.
"""
import json
import os
import pathlib
import subprocess
import sys

import icflow

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "probe.py"


def test_probe_traces_every_layer(tmp_path):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("[data]\nn = 60\nm = 40\nk_true = 3\n[algorithm]\nalgorithm = lasso\n"
                   "[runtime]\np = 4\ntopology = halton\nscheduler = sap\nmax_clocks = 4\n")
    report = tmp_path / "report.json"
    src = os.path.dirname(os.path.dirname(icflow.__file__))
    proc = subprocess.run(
        [sys.executable, str(PROBE), "--mode", "trace", "--report", str(report), "--",
         "--quiet", "--out-dir", str(tmp_path / "out"), "run", str(cfg)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {row[0] for row in json.loads(report.read_text())["agg"]}
    want = {"ssp.apply", "ssp.gate", "ssp.read", "ssp.commit", "simcluster.run",
            "sap.rounds"}
    assert want <= names, want - names
