import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icflow
from icflow import datasets
from icflow.cli import (
    _ALGORITHMS,
    _GEN_OPTIONS,
    _RUNTIME,
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
from icflow.simcluster import METRICS_HEADER

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


def write_back(cfg):
    """INI text for a parsed config; a value of None is left out."""
    sections = {"algorithm": {"algorithm": cfg.algorithm, **cfg.params},
                "data": cfg.data, "runtime": cfg.runtime}
    return "".join(f"[{name}]\n" + "".join(
        f"{k} = {v}\n" for k, v in values.items() if v is not None
    ) for name, values in sections.items())


def test_parse_config_round_trip_is_fixed_point(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.algorithm == "lasso"
    assert cfg.data == {"n": 60, "m": 12, "k_true": 3, "seed": 0}
    assert cfg.params == {"lam": None}
    assert cfg.runtime["p"] == 2 and cfg.runtime["bandwidth"] == 4096.0
    assert cfg.runtime["straggler"] is None and not cfg.runtime["slow_worker_extras"]
    text = write_back(cfg)
    cfg2 = parse_config(write_cfg(tmp_path, text, "round.cfg"))
    assert cfg2 == cfg
    assert write_back(cfg2) == text


def test_parse_config_rejects_bad_values(tmp_path):
    for bad, fragment in (
        ("algorithm = ridge", "[algorithm]"),
        ("algorithm = lasso\n[runtime]\nstaleness = -1", "staleness"),
        ("algorithm = lasso\n[runtime]\ntopology = ring", "topology"),
        ("algorithm = lasso\n[runtime]\nscheduler = greedy", "scheduler"),
        ("algorithm = lasso\n[runtime]\np = 0", "p"),
        ("algorithm = lasso\n[runtime]\npriority_mode = fifo", "priority_mode"),
        ("algorithm = lasso\nlamda = 0.5", "lamda"),
        ("algorithm = lasso\n[data]\nsed = 5", "sed"),
        ("algorithm = lda\n[data]\nd = 5", "[data] unknown key d"),
        ("algorithm = mlr\ntopics = 5", "[algorithm] unknown key topics"),
        ("algorithm = lasso\n[data]\nx = X.mtx", "missing required key y"),
        ("algorithm = lasso\n[data]\ny = y.txt", "missing required key x"),
        ("algorithm = mlr\n[data]\nu = U.mtx", "missing required key y"),
        ("algorithm = mlr\n[data]\ny = y.txt", "missing required key u"),
        ("algorithm = lasso\nlam = abc", "lam = 'abc' is not a number"),
        ("algorithm = lasso\nlam =", "lam = '' is not a number"),
        ("algorithm = lasso\nlam = -1", "lam = '-1' must be"),
        ("algorithm = lasso\n[runtime]\nbandwidth = nan", "bandwidth = 'nan' must be"),
        ("algorithm = mlr\neta0 = nan", "eta0 = 'nan' must be"),
        ("algorithm = lasso\n[data]\nseed = -1", "[data] seed = '-1' must be >= 0"),
        ("algorithm = lasso\n[runtime]\nseed = -1", "[runtime] seed = '-1' must be"),
        ("algorithm = lasso\n[runtime]\nslow_worker_extras = Maybe",
         "slow_worker_extras = 'maybe' is invalid; expected one of 1, yes, true"),
        ("algorithm = lasso\n[runtime]\nstraggler = 1:nan", "non-finite"),
        ("algorithm = lasso\n[data]\nx = X.mtx\ny = y.txt\nn = 5",
         "[data] n cannot be given with x, y"),
        ("algorithm = lasso\n[runtim]\np = 4", "unknown section [runtim]"),
        ("algorithm = lasso\n[Runtime]\np = 4", "unknown section [Runtime]"),
    ):
        path = write_cfg(tmp_path, f"[algorithm]\n{bad}\n")
        with pytest.raises(ConfigurationError) as e:
            parse_config(path)
        assert fragment.strip("[]") in str(e.value)


def _fresh_python(code, *args):
    """Standard output of `code` run in a new interpreter (this process may
    already hold the modules a test looks for), which must exit 0."""
    src = os.path.dirname(os.path.dirname(icflow.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_cli_loads_no_scipy():
    """scipy is imported by the functions that use it, not at start-up."""
    assert _fresh_python("import sys, icflow.cli; print(' '.join(m for m in "
                         "('scipy.io', 'scipy.sparse', 'scipy.special') "
                         "if m in sys.modules))") == ""


# runs `icflow` in a fresh interpreter and prints its exit code and whether
# scipy, whose import costs more than reading a `.npy` matrix, got loaded
CLI_AND_SCIPY = ("import sys; from icflow.cli import main; "
                 "print(main(sys.argv[1:]), 'scipy' in sys.modules)")


def test_gen_loads_no_scipy(tmp_path):
    assert _fresh_python(CLI_AND_SCIPY, "--out-dir", str(tmp_path), "--quiet",
                         "gen", "lasso", "--n", "40", "--m", "10") == "0 False"
    assert (tmp_path / "lasso_X.npy").exists()


def test_a_run_on_npy_data_loads_no_scipy(tmp_path):
    paths = datasets.write_lasso(datasets.gen_lasso(40, 10, 3, seed=1), str(tmp_path))
    cfg = write_cfg(tmp_path, f"[data]\nx = {paths['X']}\ny = {paths['y']}\n"
                    "[algorithm]\nalgorithm = lasso\n[runtime]\np = 2\nmax_clocks = 3\n")
    out = tmp_path / "run"
    assert _fresh_python(CLI_AND_SCIPY, "--out-dir", str(out), "--quiet",
                         "run", cfg) == "0 False"
    assert (out / "metrics.csv").exists()


def test_parse_config_missing_file():
    with pytest.raises(ConfigurationError):
        parse_config("/nonexistent/exp.cfg")


def test_parse_config_checks_data_paths(tmp_path):
    body = "[data]\nx = /missing.mtx\ny = /missing.txt\n" + \
        "[algorithm]\nalgorithm = lasso\n[runtime]\np = 2\n"
    with pytest.raises(ConfigurationError):
        parse_config(write_cfg(tmp_path, body))


def test_data_file_keys_naming_a_directory_exit_2(tmp_path, capsys):
    files = {
        "lasso": datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1),
                                      str(tmp_path)),
        "lda": datasets.write_corpus(datasets.gen_lda(10, 8, 2, 6, seed=1),
                                     str(tmp_path)),
        "mlr": datasets.write_mlr(datasets.gen_mlr(30, 5, 3, seed=1), str(tmp_path)),
    }
    for algorithm, (keys, *_) in _ALGORITHMS.items():
        paths = {key: files[algorithm][key.upper() if key in "xu" else key]
                 for key in keys}
        for key in keys:
            data = {**paths, key: str(tmp_path)}
            cfg = write_cfg(tmp_path, "[data]\n" + "".join(
                f"{k} = {v}\n" for k, v in data.items()
            ) + f"[algorithm]\nalgorithm = {algorithm}\n[runtime]\np = 2\n")
            out = tmp_path / "out"
            assert main(["--out-dir", str(out), "--quiet", "run", cfg]) \
                == EXIT_CONFIG, (algorithm, key)
            assert not out.exists()
            assert f"{key} = '{tmp_path}' is not a file" in capsys.readouterr().err


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
    unknown = write_cfg(tmp_path, MINIMAL + "priority_mode = fifo\n", "unknown.cfg")
    assert main(["--quiet", "run", unknown]) == EXIT_CONFIG
    # a misspelt section would otherwise run with the [runtime] defaults
    misspelt = write_cfg(tmp_path, MINIMAL.replace("[runtime]", "[runtim]"), "bad.cfg")
    assert main(["--quiet", "run", misspelt]) == EXIT_CONFIG
    # `good` is an existing file, so only the missing partner of x or y is wrong
    for section, line in (("[data]", "sed = 5"), ("[algorithm]", "lamda = 0.5"),
                          ("[data]", f"x = {good}"), ("[data]", f"y = {good}"),
                          ("[data]", f"x = {good}\ny = {good}"),
                          ("[algorithm]", "lam = abc"), ("[algorithm]", "lam ="),
                          ("[algorithm]", "lam = -1"), ("[data]", "seed = -1"),
                          ("[runtime]", "bandwidth = nan"), ("[runtime]", "seed = -1"),
                          ("[runtime]", "slow_worker_extras = maybe")):
        bad = write_cfg(
            tmp_path, MINIMAL.replace(section, f"{section}\n{line}"), "bad.cfg"
        )
        assert main(["--quiet", "run", bad]) == EXIT_CONFIG, line
    bad = write_cfg(tmp_path, MLR.replace("[algorithm]", "[algorithm]\neta0 = nan"),
                    "bad.cfg")
    assert main(["--quiet", "run", bad]) == EXIT_CONFIG
    # extras at staleness 0 would never let a clock advance
    extras = MINIMAL.replace("[runtime]", "[runtime]\nslow_worker_extras = yes")
    bad = write_cfg(tmp_path, extras.replace("staleness = 1", "staleness = 0"),
                    "bad.cfg")
    assert main(["--quiet", "run", bad]) == EXIT_CONFIG
    ok = write_cfg(tmp_path, extras, "ok.cfg")
    assert parse_config(ok).runtime["slow_worker_extras"] is True
    assert main(["--out-dir", str(tmp_path / "ok"), "--quiet", "run", ok]) == EXIT_OK


def test_run_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["--out-dir", str(out), "--quiet", "run", cfg]) == EXIT_OK
    for name in ("metrics.csv", "trace.txt", "traffic.csv", "summary.txt"):
        assert (out / name).exists()
    rows = read_metrics(str(out / "metrics.csv"))
    assert rows[0]["iteration"] == 1


MLR = """
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


def test_mlr_without_codec_validates_and_runs_sufficient_factor(tmp_path):
    cfg = write_cfg(tmp_path, MLR)
    assert parse_config(cfg).runtime["codec"] == "sufficient_factor"
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "--quiet", "run", cfg]) == EXIT_OK
    summary = (out / "summary.txt").read_text()
    assert "codec: sufficient_factor" in summary
    # steps * (P-1) peers * (header + 8 * batch rows * (K + D))
    expected = 3 * 1 * (25 + 8 * 8 * (3 + 5))
    assert f"bytes sent (sufficient_factor codec): {expected}" in summary


def test_mlr_full_codec_sends_the_dense_gradient(tmp_path):
    # d != k: a factor list of S rows cannot stand in for the K x D matrix
    cfg = write_cfg(tmp_path, MLR.replace("p = 2", "p = 3\ncodec = full"))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "--quiet", "run", cfg]) == EXIT_OK
    steps, P, K, D = 3, 3, 3, 5
    expected = steps * (P - 1) * (25 + 8 * K * D)
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[-1].split(",")[-1] == str(expected)
    assert f"bytes sent (full codec): {expected}" in (out / "summary.txt").read_text()


def test_run_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        main(["--out-dir", str(out), "--quiet", "run", cfg])
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_diverging_lasso_run_exits_3(tmp_path, capsys):
    # 16 concurrent block updates with a tiny lambda on a block-correlated
    # design overshoot until the objective overflows; such a run once wrote
    # `inf` rows and exited 0
    paths = datasets.write_lasso(datasets.gen_lasso(
        200, 50, 10, seed=1, block_size=50, block_rho=0.9), str(tmp_path))
    cfg = write_cfg(tmp_path, f"[data]\nx = {paths['X']}\ny = {paths['y']}\n"
                    "[algorithm]\nalgorithm = lasso\nlam = 0.001\n[runtime]\n"
                    "p = 16\ntopology = full_p2p\nmax_clocks = 200\n")
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "--quiet", "run", cfg]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert re.fullmatch(r"invariant violation: objective became non-finite "
                        r"\((inf|nan)\) at iteration \d+\n", err), err
    assert not (out / "metrics.csv").exists()


def test_a_bandwidth_no_message_can_cross_exits_2(tmp_path, capsys):
    # a 73-byte message at 1e-320 bytes per tick once ended in an
    # OverflowError traceback
    cfg = write_cfg(tmp_path, MINIMAL.replace("p = 2", "p = 4\nbandwidth = 1e-320"))
    assert main(["--out-dir", str(tmp_path / "out"), "--quiet", "run", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.fullmatch(r"configuration error: a \d+-byte message has no finite "
                        r"transmission time at 1e-320 bytes per tick\n", err), err


def test_an_empty_y_file_is_one_configuration_error_line(tmp_path):
    # numpy's "input contained no data" warning once came first
    lasso = datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1), str(tmp_path))
    mlr = datasets.write_mlr(datasets.gen_mlr(30, 5, 3, seed=1), str(tmp_path))
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    src = os.path.dirname(os.path.dirname(icflow.__file__))
    for algorithm, key, matrix in (("lasso", "x", lasso["X"]), ("mlr", "u", mlr["U"])):
        cfg = write_cfg(tmp_path, f"[data]\n{key} = {matrix}\ny = {empty}\n"
                        f"[algorithm]\nalgorithm = {algorithm}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "icflow.cli", "--quiet", "--out-dir",
             str(tmp_path / "out"), "run", cfg],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=60)
        assert proc.returncode == EXIT_CONFIG, algorithm
        assert proc.stderr.splitlines() == [
            f"configuration error: {empty}: expected one value per line for the "
            f"30 rows of {matrix}, got shape (0,)"], algorithm


def test_gen_lasso_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["--seed", "7", "--out-dir", str(d), "--quiet",
                     "gen", "lasso", "--n", "50", "--m", "10"]) == EXIT_OK
    assert (a / "lasso_X.npy").read_bytes() == (b / "lasso_X.npy").read_bytes()
    assert (a / "lasso_y.txt").read_bytes() == (b / "lasso_y.txt").read_bytes()


def test_gen_checks_values_with_the_data_key_bounds(tmp_path):
    # each option takes the bound of its [data] generator key; before these
    # checks some raised a ValueError and the rest wrote unusable data
    for argv in (["lda", "--vocab", "0"], ["lda", "--topics", "0"],
                 ["lda", "--doc-len", "-3"], ["lasso", "--n", "-5"],
                 ["lasso", "--k-true", "-1"], ["lda", "--zipf", "nan"],
                 ["lda", "--zipf", "inf"], ["lasso", "--n", "0"],
                 ["lda", "--n-docs", "0"], ["mlr", "--dims", "0"],
                 ["mlr", "--classes", "1"],
                 # a topic with no word of nonzero weight
                 ["lda", "--topics", "60", "--vocab", "50"], ["lda", "--zipf", "2000"]):
        out = tmp_path / "_".join(argv)
        assert main(["--out-dir", str(out), "--quiet", "gen", *argv]) \
            == EXIT_CONFIG, argv
        assert not out.exists(), argv
    assert main(["--seed", "-1", "--quiet", "gen", "lasso"]) == EXIT_CONFIG
    more_topics = write_cfg(tmp_path, "[data]\nv = 10\nk = 12\n"
                            "[algorithm]\nalgorithm = lda\n[runtime]\np = 2\n")
    assert main(["--quiet", "run", more_topics]) == EXIT_CONFIG
    assert main(["--out-dir", str(tmp_path / "ok"), "--quiet",
                 "gen", "mlr", "--classes", "2", "--n", "1"]) == EXIT_OK


def test_data_files_whose_shapes_disagree_exit_2(tmp_path):
    lasso = datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1), str(tmp_path))
    mlr = datasets.write_mlr(datasets.gen_mlr(30, 5, 3, seed=1), str(tmp_path))
    labels = np.loadtxt(mlr["y"])

    def run(algorithm, x, y):
        cfg = write_cfg(tmp_path, f"[data]\n{'x' if algorithm == 'lasso' else 'u'}"
                        f" = {x}\ny = {y}\n[algorithm]\nalgorithm = {algorithm}\n"
                        "[runtime]\np = 2\n"
                        + ("max_clocks = 2\n" if algorithm == "lasso" else ""))
        return main(["--out-dir", str(tmp_path / "out"), "--quiet", "run", cfg])

    def vector(name, values, fmt="%.17g"):
        np.savetxt(tmp_path / name, values, fmt=fmt)
        return str(tmp_path / name)

    assert run("lasso", lasso["X"], lasso["y"]) == EXIT_OK
    assert run("mlr", mlr["U"], mlr["y"]) == EXIT_OK
    y = np.loadtxt(lasso["y"])
    for bad in (y[:29], np.append(y, 1.0), np.column_stack([y, y])):
        assert run("lasso", lasso["X"], vector("y.txt", bad)) == EXIT_CONFIG
    (tmp_path / "words.txt").write_text("abc\n" * 30)
    assert run("lasso", lasso["X"], str(tmp_path / "words.txt")) == EXIT_CONFIG
    # a short label file used to exit 3, a fractional label to run as class 1
    assert run("mlr", mlr["U"], vector("l.txt", labels[:29], "%d")) == EXIT_CONFIG
    for label in (1.7, np.nan, np.inf):
        bad = labels.copy()
        bad[4] = label
        with pytest.raises(ConfigurationError):
            datasets.read_mlr(mlr["U"], vector("l.txt", bad))
        assert run("mlr", mlr["U"], str(tmp_path / "l.txt")) == EXIT_CONFIG, label


def rank_frequency_slope(docs, top=30):
    """Least-squares slope of log frequency vs log rank over the top ranks."""
    counts = np.bincount([w for doc in docs for w in doc])
    freq = np.sort(counts[counts > 0])[::-1][:top].astype(float)
    ranks = np.arange(1, len(freq) + 1, dtype=float)
    return float(np.polyfit(np.log(ranks), np.log(freq), 1)[0])


def test_gen_lda_zipf_slope(tmp_path):
    corpus = datasets.gen_lda(400, 80, 4, 40, seed=3, zipf_s=1.0)
    slope = rank_frequency_slope(corpus.docs)
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
    # any real floating dtype is read as float64, as a Matrix Market file is
    np.save(tmp_path / "X32.npy", ds.X.astype(np.float32))
    X32, _ = datasets.read_lasso(str(tmp_path / "X32.npy"), paths["y"])
    assert X32.dtype == np.float64 and np.array_equal(X32, ds.X.astype(np.float32))

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


def _reference_read_corpus(path):
    """`read_corpus` as a loop over the triples, for well-formed files."""
    with open(path) as f:
        fields = f.read().split()
    D, V, nnz = int(fields[0]), int(fields[1]), int(fields[2])
    docs = [[] for _ in range(D)]
    for i in range(nnz):
        d, w, c = (int(x) for x in fields[3 + 3 * i: 6 + 3 * i])
        docs[d - 1].extend([w - 1] * c)
    return docs, V


def test_corpus_ids_and_counts_are_checked(tmp_path):
    def corpus(*triples, D=2, V=3):
        path = tmp_path / "docs.txt"
        path.write_text(f"{D}\n{V}\n{len(triples)}\n"
                        + "".join(f"{d} {w} {c}\n" for d, w, c in triples))
        return str(path)

    # triples in any order; each document keeps its words in file order
    assert datasets.read_corpus(corpus((2, 3, 1), (1, 2, 2), (2, 1, 0), (2, 1, 1))) \
        == ([[1, 1], [2, 0]], 3)
    assert datasets.read_corpus(corpus(D=3)) == ([[], [], []], 3)
    rng = np.random.default_rng(5)
    for _ in range(40):
        D, V = (int(x) for x in rng.integers(1, 7, size=2))
        path = corpus(*zip(rng.integers(1, D + 1, size=12).tolist(),
                           rng.integers(1, V + 1, size=12).tolist(),
                           rng.integers(0, 4, size=12).tolist()), D=D, V=V)
        assert datasets.read_corpus(path) == _reference_read_corpus(path)
    cfg = write_cfg(tmp_path, f"[data]\ndocs = {corpus((1, 1, 2), (2, 3, 1))}\n"
                    "[algorithm]\nalgorithm = lda\ntopics = 2\nepochs = 1\n"
                    "[runtime]\np = 2\n")
    assert main(["--out-dir", str(tmp_path / "ok"), "--quiet", "run", cfg]) == EXIT_OK
    for bad in ((0, 1, 2),  # docID 0 used to land in the last document
                (3, 1, 2),  # docID above D
                (1, 0, 2), (1, 4, 2),  # wordID outside 1..V
                (1, 2, -3),  # negative count
                (1, 2, "x"), (1, 2, 2**70)):
        corpus((1, 1, 2), bad)
        with pytest.raises(ConfigurationError):
            datasets.read_corpus(str(tmp_path / "docs.txt"))
        assert main(["--quiet", "run", cfg]) == EXIT_CONFIG, bad
    # the last is not UTF-8, which used to end in a UnicodeDecodeError
    for text in (b"", b"2 3", b"0 3 0", b"2 0 0", b"2 3 2\n1 1 1\n",
                 b"2 3 1\n1 1 \xff\n"):
        (tmp_path / "docs.txt").write_bytes(text)
        with pytest.raises(ConfigurationError, match="docs.txt"):
            datasets.read_corpus(str(tmp_path / "docs.txt"))
        assert main(["--quiet", "run", cfg]) == EXIT_CONFIG, text


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


def test_replay_rejects_bad_arguments_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "no_such_trace.txt")
    assert main(["--quiet", "replay", missing,
                 "--staleness", "1", "--workers", "0"]) == EXIT_CONFIG
    assert "--workers = 0 must be >= 1" in capsys.readouterr().err
    assert main(["--quiet", "replay", missing,
                 "--staleness", "-1", "--workers", "2"]) == EXIT_CONFIG
    assert "--staleness = -1 must be >= 0" in capsys.readouterr().err
    assert main(["--quiet", "replay", missing,
                 "--staleness", "0", "--workers", "1"]) == EXIT_CONFIG
    assert "cannot read trace" in capsys.readouterr().err


def test_replay_malformed_trace_is_exit_2(tmp_path, capsys):
    header = "tick,event,worker,clock,seq,timestamp,key_count,bytes\n"
    cases = {
        "short.txt": (header + "0,clock,0,1,0,0,0,0\n1,clock,0\n", "line 3"),
        "header.txt": ("not a trace header\n", "line 1"),
        "empty.txt": ("", "line 0"),
    }
    for name, (text, where) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["--quiet", "replay", str(path),
                     "--staleness", "0", "--workers", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("cannot parse trace:") and where in err, err
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00garbage")
    assert main(["--quiet", "replay", str(binary),
                 "--staleness", "0", "--workers", "1"]) == EXIT_CONFIG
    assert "cannot read trace" in capsys.readouterr().err

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
        assert cfg.algorithm in ("lasso", "lda", "mlr")


def _mtx_copy(npy_path):
    """Path of a coordinate Matrix Market copy of the `.npy` matrix at
    `npy_path`, written next to it by scipy."""
    import scipy.io
    import scipy.sparse

    path = npy_path.removesuffix(".npy") + ".mtx"
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(np.load(npy_path)))
    return path


def test_malformed_matrix_files_exit_2(tmp_path, capsys):
    lasso = datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1), str(tmp_path))
    mlr = datasets.write_mlr(datasets.gen_mlr(30, 5, 3, seed=1), str(tmp_path))
    for algorithm, key, paths in (("lasso", "x", lasso), ("mlr", "u", mlr)):
        lines = Path(_mtx_copy(paths[key.upper()])).read_text().splitlines(keepends=True)
        assert lines[3].startswith("1 1 ")  # banner, comment, sizes, first entry
        cases = {
            "vector": (tmp_path / paths["y"]).read_text(),
            "truncated": "".join(lines[: len(lines) // 2]),
            "non_numeric": "".join(lines[:3] + ["1 1 abc\n"] + lines[4:]),
            "empty": "",
        }
        for name, text in cases.items():
            matrix = tmp_path / f"{algorithm}_{name}.mtx"
            matrix.write_text(text)
            with pytest.raises(ConfigurationError, match=str(matrix)):
                datasets.read_lasso(str(matrix), paths["y"])
            cfg = write_cfg(tmp_path, f"[data]\n{key} = {matrix}\ny = {paths['y']}\n"
                            f"[algorithm]\nalgorithm = {algorithm}\n[runtime]\np = 2\n")
            assert main(["--out-dir", str(tmp_path / "out"), "--quiet", "run", cfg]) \
                == EXIT_CONFIG, (algorithm, name)
            assert str(matrix) in capsys.readouterr().err


def _matrix_run(tmp_path, name, algorithm, matrix, y):
    key = "x" if algorithm == "lasso" else "u"
    cfg = write_cfg(tmp_path, f"[data]\n{key} = {matrix}\ny = {y}\n[algorithm]\n"
                    f"algorithm = {algorithm}\n[runtime]\np = 2\n", f"{name}.cfg")
    out = tmp_path / name
    return main(["--out-dir", str(out), "--quiet", "run", cfg]), out


def test_array_format_matrix_files_run_like_coordinate_ones(tmp_path):
    import scipy.io

    lasso = datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1), str(tmp_path))
    mlr = datasets.write_mlr(datasets.gen_mlr(30, 5, 3, seed=1), str(tmp_path))
    for algorithm, paths in (("lasso", lasso), ("mlr", mlr)):
        npy = paths["X" if algorithm == "lasso" else "U"]
        coordinate = _mtx_copy(npy)
        array = tmp_path / f"{algorithm}_array.mtx"
        scipy.io.mmwrite(str(array), scipy.io.mmread(coordinate).toarray())
        assert array.read_text().startswith("%%MatrixMarket matrix array real")
        # a .npy file is known by its magic bytes, whatever its name
        renamed = tmp_path / f"{algorithm}_npy.txt"
        renamed.write_bytes(Path(npy).read_bytes())
        outputs = []
        for name, matrix in (("coordinate", coordinate), ("array", array),
                             ("npy", npy), ("renamed", renamed)):
            code, out = _matrix_run(tmp_path, f"{algorithm}_{name}", algorithm,
                                    matrix, paths["y"])
            assert code == EXIT_OK, (algorithm, name)
            outputs.append(_files(out))
        assert all(o == outputs[0] for o in outputs[1:]), algorithm


def test_complex_or_non_finite_data_files_exit_2(tmp_path, capsys):
    import scipy.io

    lasso = datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1), str(tmp_path))
    mlr = datasets.write_mlr(datasets.gen_mlr(30, 5, 3, seed=1), str(tmp_path))
    complex_matrix = tmp_path / "complex.mtx"
    complex_matrix.write_text(
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 2.0\n")
    one = tmp_path / "one.txt"
    one.write_text("1\n")
    cases = [("lasso", "complex", complex_matrix, one, complex_matrix),
             ("mlr", "complex", complex_matrix, one, complex_matrix)]
    for algorithm, paths in (("lasso", lasso), ("mlr", mlr)):
        npy = paths["X" if algorithm == "lasso" else "U"]
        matrix = _mtx_copy(npy)
        dense = scipy.io.mmread(matrix).toarray()
        for value in (np.nan, np.inf):
            bad = dense.copy()
            bad[2, 1] = value
            path = tmp_path / f"{algorithm}_{value}.mtx"
            scipy.io.mmwrite(str(path), bad)
            cases.append((algorithm, f"matrix {value}", path, paths["y"], path))
            path = tmp_path / f"{algorithm}_{value}.npy"
            np.save(path, bad)
            cases.append((algorithm, f"npy {value}", path, paths["y"], path))
        path = tmp_path / f"{algorithm}_complex.npy"
        np.save(path, np.load(npy) + 1j)
        cases.append((algorithm, "npy complex", path, paths["y"], path))
        # a NaN MLR label: test_data_files_whose_shapes_disagree_exit_2
        if algorithm == "lasso":
            y = np.loadtxt(paths["y"])
            y[4] = np.nan
            path = tmp_path / "lasso_nan_y.txt"
            np.savetxt(path, y)
            cases.append((algorithm, "vector nan", matrix, path, path))
    for algorithm, name, matrix, y, named in cases:
        with pytest.raises(ConfigurationError, match=str(named)):
            datasets.read_lasso(str(matrix), str(y))
        assert _matrix_run(tmp_path, "bad", algorithm, matrix, y)[0] == EXIT_CONFIG, \
            (algorithm, name)
        err = capsys.readouterr().err
        assert str(named) in err and "unit-normalized" not in err, (algorithm, name)


def _exits_2_naming(tmp_path, capsys, algorithm, matrix, y):
    """Reading `matrix` raises a configuration error naming it, and a run on
    it exits 2 with that name on standard error."""
    with pytest.raises(ConfigurationError, match=str(matrix)):
        datasets.read_lasso(str(matrix), str(y))
    assert _matrix_run(tmp_path, "bad", algorithm, matrix, y)[0] == EXIT_CONFIG
    assert str(matrix) in capsys.readouterr().err


def test_malformed_npy_files_exit_2(tmp_path, capsys):
    lasso = datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1), str(tmp_path))
    mlr = datasets.write_mlr(datasets.gen_mlr(30, 5, 3, seed=1), str(tmp_path))
    for algorithm, paths in (("lasso", lasso), ("mlr", mlr)):
        npy = paths["X" if algorithm == "lasso" else "U"]
        data = Path(npy).read_bytes()
        header = 10 + int.from_bytes(data[8:10], "little")  # format version 1.0
        X = np.load(npy)
        cases = {"1d": X[:, 0], "3d": X[None], "int": X.astype(np.int64),
                 "object": X.astype(object)}
        for name, array in cases.items():
            path = tmp_path / f"{algorithm}_{name}.npy"
            np.save(path, array, allow_pickle=True)
            _exits_2_naming(tmp_path, capsys, algorithm, path, paths["y"])
        for name, cut in (("cut_header", header // 2), ("cut_data", header + 100)):
            path = tmp_path / f"{algorithm}_{name}.npy"
            path.write_bytes(data[:cut])
            _exits_2_naming(tmp_path, capsys, algorithm, path, paths["y"])


def test_design_matrices_with_no_rows_or_columns_exit_2(tmp_path, capsys):
    # before this check a 5x0 Lasso .mtx ended in a ValueError traceback, a
    # 6x0 MLR matrix trained, and a 0xN one failed as "zero column"
    y = tmp_path / "y.txt"
    for rows, cols in ((5, 0), (6, 0), (0, 5)):
        np.savetxt(y, np.zeros(rows), fmt="%d")
        mtx = tmp_path / f"{rows}x{cols}.mtx"
        mtx.write_text(
            f"%%MatrixMarket matrix coordinate real general\n{rows} {cols} 0\n")
        npy = tmp_path / f"{rows}x{cols}.npy"
        np.save(npy, np.zeros((rows, cols)))
        for algorithm in ("lasso", "mlr"):
            for matrix in (mtx, npy):
                _exits_2_naming(tmp_path, capsys, algorithm, matrix, y)


@pytest.mark.parametrize("text, message", [
    (None, "cannot read metrics"),
    (METRICS_HEADER + "\n", "no rows after the header"),
    (METRICS_HEADER + "\n1,x,3\n", "malformed row '1,x,3'"),
], ids=["missing", "header_only", "non_numeric_row"])
def test_report_bad_metrics_file_is_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "metrics.csv"
    if text is not None:
        path.write_text(text)
    assert main(["report", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_global_options_a_command_does_not_read_exit_2(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    run = tmp_path / "run"
    assert main(["--out-dir", str(run), "--quiet", "run", cfg]) == EXIT_OK
    replay_argv = ["replay", str(run / "trace.txt"), "--staleness", "1", "--workers", "2"]
    out = tmp_path / "unread"
    for option, argv in ((["--seed", "99"], ["run", cfg]),
                         (["--seed", "0"], replay_argv),
                         (["--out-dir", str(out)], replay_argv),
                         (["--seed", "0"], ["report", str(run / "metrics.csv")]),
                         (["--out-dir", str(out)], ["report", str(run / "metrics.csv")])):
        assert main([*option, "--quiet", *argv]) == EXIT_CONFIG, argv
        assert f"{option[0]} is read only by" in capsys.readouterr().err
        assert not out.exists()
        if argv[0] != "run":
            assert main(argv) == EXIT_OK
    # report prints its table whatever --quiet says, so it rejects the flag
    assert main(["--quiet", "report", str(run / "metrics.csv")]) == EXIT_CONFIG
    assert "--quiet is read only by gen, run, replay" in capsys.readouterr().err
    # left out, --seed is 0 and --out-dir the working directory
    monkeypatch.chdir(tmp_path)
    assert main(["--quiet", "gen", "lasso", "--n", "20", "--m", "10"]) == EXIT_OK
    assert main(["--seed", "0", "--out-dir", "seed0", "--quiet",
                 "gen", "lasso", "--n", "20", "--m", "10"]) == EXIT_OK
    assert (tmp_path / "lasso_X.npy").read_bytes() \
        == (tmp_path / "seed0" / "lasso_X.npy").read_bytes()
    assert main(["--quiet", "run", cfg]) == EXIT_OK
    assert (tmp_path / "metrics.csv").read_bytes() == (run / "metrics.csv").read_bytes()


# The knob audit: every [runtime] key an algorithm reads and every `icflow gen`
# option changes what is written, and every other one exits 2. The values are
# not defaults; a key or option added without one here fails the audit.
RUNTIME_VALUES = {"p": "3", "staleness": "2", "seed": "5", "max_clocks": "3",
                  "topology": "halton", "codec": "full", "scheduler": "sap",
                  "bandwidth": "1", "latency": "9", "straggler": "1:5",
                  "slow_worker_extras": "yes"}
# what a key needs to act: Lasso draws from its seed only in a randomized
# scheduler (SAP samples a pool of at least 32 of the m = 40 coordinates), and
# extra passes need a worker that waits on a slower one
RUNTIME_NEEDS = {("lasso", "seed"): {"scheduler": "sap"},
                 ("lasso", "slow_worker_extras"): {"staleness": "1", "straggler": "1:5"}}
AUDIT_BASE = {
    "lasso": ("n = 60\nm = 40\nk_true = 3", "", {"max_clocks": "5"}),
    "lda": ("n_docs = 20\nv = 15\nk = 3\ndoc_len = 8", "epochs = 2", {}),
    "mlr": ("n = 60\nd = 5\nk = 3", "steps = 3\nbatch = 8", {}),
}
GEN_VALUES = {"n": "7", "m": "12", "k_true": "2", "seed": "3", "n_docs": "9",
              "vocab": "30", "topics": "3", "doc_len": "8", "zipf": "0.5",
              "dims": "4", "classes": "3"}


def _audit_run(tmp_path, name, algorithm, runtime):
    data, params, base = AUDIT_BASE[algorithm]
    lines = "".join(f"{k} = {v}\n" for k, v in {**base, **runtime}.items())
    cfg = write_cfg(tmp_path, f"[data]\n{data}\n[algorithm]\nalgorithm = {algorithm}\n"
                    f"{params}\n[runtime]\n{lines}", f"{name}.cfg")
    out = tmp_path / name
    return main(["--out-dir", str(out), "--quiet", "run", cfg]), out


def _files(out):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_every_runtime_key_an_algorithm_reads_changes_its_run(tmp_path):
    assert set(RUNTIME_VALUES) == set(_RUNTIME)
    for algorithm, (*_, keys) in _ALGORITHMS.items():
        for key in keys:
            needs = RUNTIME_NEEDS.get((algorithm, key), {})
            name = f"{algorithm}_{key}"
            code, base = _audit_run(tmp_path, name + "_base", algorithm, needs)
            assert code == EXIT_OK, name
            code, out = _audit_run(tmp_path, name, algorithm,
                                   {**needs, key: RUNTIME_VALUES[key]})
            assert code == EXIT_OK, name
            # summary.txt echoes the settings; the run itself must change
            before, after = _files(base), _files(out)
            assert {f for f in after if after[f] != before[f]} - {"summary.txt"}, name


def test_every_other_runtime_key_exits_2_before_any_work(tmp_path, capsys):
    assert sorted(_ALGORITHMS["lda"][3]) == ["p", "seed"]
    assert sorted(_ALGORITHMS["mlr"][3]) == ["codec", "p", "seed"]
    assert set(_RUNTIME) - set(_ALGORITHMS["lasso"][3]) == {"codec"}
    for algorithm, (*_, keys) in _ALGORITHMS.items():
        for key in set(_RUNTIME) - set(keys):
            name = f"{algorithm}_{key}"
            code, out = _audit_run(tmp_path, name, algorithm, {key: RUNTIME_VALUES[key]})
            assert code == EXIT_CONFIG, name
            assert f"[runtime] unknown key {key}; expected one of " \
                f"{', '.join(keys)}" in capsys.readouterr().err
            assert not out.exists(), name


def _gen(tmp_path, name, kind, option=None):
    out = tmp_path / name
    argv = ["--out-dir", str(out), "--quiet", "gen", kind]
    if option == "seed":  # the global option
        argv = ["--seed", GEN_VALUES[option], *argv]
    elif option:
        argv += ["--" + option.replace("_", "-"), GEN_VALUES[option]]
    assert main(argv) == EXIT_OK, argv
    return _files(out)


def test_every_gen_option_changes_the_files_and_others_exit_2(tmp_path):
    assert {o for options in _GEN_OPTIONS.values() for o in options} == set(GEN_VALUES)
    for kind, options in _GEN_OPTIONS.items():
        base = _gen(tmp_path, kind, kind)
        for option in options:
            assert _gen(tmp_path, f"{kind}_{option}", kind, option) != base, option
        for option in set(GEN_VALUES) - set(options):
            with pytest.raises(SystemExit) as e:
                main(["--quiet", "gen", kind, "--" + option.replace("_", "-"),
                      GEN_VALUES[option]])
            assert e.value.code == 2, (kind, option)
    # each default is the [data] generator default: `gen mlr` writes 500 rows
    for kind, rows in (("lasso", "lasso_y.txt"), ("mlr", "mlr_y.txt")):
        y = (tmp_path / kind / rows).read_text().splitlines()
        assert len(y) == _ALGORITHMS[kind][1]["n"][1]
    docs = (tmp_path / "lda" / "lda_docs.txt").read_text().split()
    assert int(docs[0]) == _ALGORITHMS["lda"][1]["n_docs"][1]
