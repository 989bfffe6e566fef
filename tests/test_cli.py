import os

import numpy as np
import pytest

from icflow import datasets
from icflow.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    build_report,
    main,
    parse_config,
    parse_straggler,
    read_metrics,
)
from icflow.errors import ConfigurationError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


MINIMAL = """
[data]
n = 60
m = 12
k_true = 3

[algorithm]
algorithm = lasso

[runtime]
p = 2
staleness = 1
max_clocks = 5
"""


def test_parse_config_round_trip_is_fixed_point(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    text = cfg.serialize()
    path2 = write_cfg(tmp_path, text, "round.cfg")
    cfg2 = parse_config(path2)
    assert cfg2.serialize() == text


def test_parse_config_rejects_bad_values(tmp_path):
    for bad, fragment in (
        ("algorithm = ridge", "[algorithm]"),
        ("algorithm = lasso\n[runtime]\nstaleness = -1", "staleness"),
        ("algorithm = lasso\n[runtime]\ntopology = ring", "topology"),
        ("algorithm = lasso\n[runtime]\nscheduler = greedy", "scheduler"),
        ("algorithm = lasso\n[runtime]\np = 0", "p"),
    ):
        path = write_cfg(tmp_path, f"[algorithm]\n{bad}\n")
        with pytest.raises(ConfigurationError) as e:
            parse_config(path)
        assert fragment.strip("[]") in str(e.value)


def test_parse_config_missing_file():
    with pytest.raises(ConfigurationError):
        parse_config("/nonexistent/exp.cfg")


def test_parse_config_checks_data_paths(tmp_path):
    body = "[data]\nx = /missing.mtx\ny = /missing.txt\n" + \
        "[algorithm]\nalgorithm = lasso\n[runtime]\np = 2\n"
    with pytest.raises(ConfigurationError):
        parse_config(write_cfg(tmp_path, body))


def test_parse_straggler():
    assert parse_straggler("", 4) is None
    w = parse_straggler("1:5", 4)
    assert w.worker == 1 and w.factor == 5.0
    w = parse_straggler("2:3:100:50", 4)
    assert w.start_tick == 100.0 and w.duration == 50.0
    with pytest.raises(ConfigurationError):
        parse_straggler("9:5", 4)
    with pytest.raises(ConfigurationError):
        parse_straggler("1:0.5", 4)
    with pytest.raises(ConfigurationError):
        parse_straggler("1:5:2", 4)
    with pytest.raises(ConfigurationError):
        parse_straggler("a:b", 4)


def test_run_exit_codes(tmp_path):
    good = write_cfg(tmp_path, MINIMAL)
    assert main(["--out-dir", str(tmp_path / "out"), "--quiet", "run", good]) == EXIT_OK
    bad = write_cfg(
        tmp_path,
        MINIMAL.replace("staleness = 1", "staleness = -1"),
        "bad.cfg",
    )
    assert main(["--quiet", "run", bad]) == EXIT_CONFIG


def test_run_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["--out-dir", str(out), "--quiet", "run", cfg]) == EXIT_OK
    for name in ("metrics.csv", "trace.txt", "traffic.csv", "summary.txt"):
        assert (out / name).exists()
    rows = read_metrics(str(out / "metrics.csv"))
    assert rows[0]["iteration"] == 1


def test_mlr_without_codec_validates_and_runs_sufficient_factor(tmp_path):
    body = """
[data]
n = 60
d = 5
k = 3

[algorithm]
algorithm = mlr
steps = 3
batch = 8

[runtime]
p = 2
"""
    cfg = write_cfg(tmp_path, body)
    assert "codec" not in parse_config(cfg).runtime
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "--quiet", "run", cfg]) == EXIT_OK
    assert "codec: sufficient_factor" in (out / "summary.txt").read_text()


def test_run_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        main(["--out-dir", str(out), "--quiet", "run", cfg])
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_gen_lasso_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["--seed", "7", "--out-dir", str(d), "--quiet",
                     "gen", "lasso", "--n", "50", "--m", "10"]) == EXIT_OK
    assert (a / "lasso_X.mtx").read_bytes() == (b / "lasso_X.mtx").read_bytes()
    assert (a / "lasso_y.txt").read_bytes() == (b / "lasso_y.txt").read_bytes()


def test_gen_lda_zipf_slope(tmp_path):
    corpus = datasets.gen_lda(400, 80, 4, 40, seed=3, zipf_s=1.0)
    slope = datasets.rank_frequency_slope(corpus.docs)
    assert -1.2 < slope < -0.8


def test_gen_mlr_is_separable():
    from icflow.algorithms.mlr import MlrProblem, accuracy, train_sgd

    ds = datasets.gen_mlr(200, 12, 4, seed=9)
    prob = MlrProblem(U=ds.U, y=ds.y, K=4)
    A, _ = train_sgd(prob, steps=120, batch_size=32, seed=1)
    assert accuracy(A, ds.U, ds.y) == 1.0


def test_dataset_files_round_trip(tmp_path):
    ds = datasets.gen_lasso(40, 8, 3, seed=1)
    paths = datasets.write_lasso(ds, str(tmp_path))
    X, y = datasets.read_lasso(paths["X"], paths["y"])
    assert np.allclose(X, ds.X)
    assert np.allclose(y, ds.y)

    corpus = datasets.gen_lda(15, 10, 2, 6, seed=2)
    cpaths = datasets.write_corpus(corpus, str(tmp_path))
    docs, V = datasets.read_corpus(cpaths["docs"])
    assert V == 10
    # triples lose within-doc token order; multisets must match
    assert [sorted(d) for d in docs] == [sorted(d) for d in corpus.docs]

    mds = datasets.gen_mlr(30, 5, 3, seed=3)
    mpaths = datasets.write_mlr(mds, str(tmp_path))
    U, y = datasets.read_mlr(mpaths["U"], mpaths["y"])
    assert np.allclose(U, mds.U)
    assert np.array_equal(y, mds.y)


def test_replay_subcommand_exit_codes(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, MINIMAL)
    main(["--out-dir", str(out), "--quiet", "run", cfg])
    trace = str(out / "trace.txt")
    assert main(["--quiet", "replay", trace,
                 "--staleness", "1", "--workers", "2"]) == EXIT_OK
    # corrupt the trace: forge a huge clock jump followed by a commit
    with open(trace) as f:
        lines = f.read().splitlines()
    lines = [ln for ln in lines if ",finish," not in ln]
    lines.append("9999,clock,0,99,0,0,0,0")
    lines.append("9999,commit,0,99,9999,99,1,37")
    bad = tmp_path / "bad_trace.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["--quiet", "replay", str(bad),
                 "--staleness", "1", "--workers", "2"]) == EXIT_INVARIANT


def test_report_ratio_and_not_reached(tmp_path, capsys):
    header = ("iteration,tick,objective,mean_staleness,max_staleness,"
              "blocked_ticks,bytes_sent")
    m1 = tmp_path / "m1.csv"
    m1.write_text(header + "\n1,10,5.0,0,0,0,0\n2,20,1.0,0,0,0,0\n")
    m2 = tmp_path / "m2.csv"
    m2.write_text(header + "\n1,15,4.0,0,0,0,0\n2,40,2.0,0,0,0,0\n")
    text = build_report([str(m1), str(m2)], tolerance=2.5)
    assert "m1.csv: 20" in text
    assert "m2.csv: 40" in text
    assert "ratio" in text
    text = build_report([str(m1)], tolerance=0.1)
    assert "not reached" in text
    with pytest.raises(ConfigurationError):
        read_metrics(str(tmp_path / "m_missing_header.csv")) if (
            (tmp_path / "m_missing_header.csv").write_text("nope\n") or True
        ) else None


def test_shipped_configs_parse():
    for name in os.listdir(CONFIG_DIR):
        cfg = parse_config(os.path.join(CONFIG_DIR, name))
        assert cfg.algorithm["algorithm"] in ("lasso", "lda", "mlr")
