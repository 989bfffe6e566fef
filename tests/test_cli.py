import ast
import os
import random
import re
import signal
import subprocess
import sys
import time
import warnings
from collections import Counter
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
from icflow.simcluster import MAX_EXTRA_PASSES, METRICS_HEADER

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


def test_no_module_imports_scipy():
    """numpy is the only runtime dependency (pyproject.toml's `dependencies`):
    every absolute import under src/icflow, at module level or inside a
    function, is of the standard library, numpy or icflow itself, so scipy
    is never imported."""
    src = Path(icflow.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "icflow"}
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(src)}:{node.lineno}: {name}"
                      for name in names if name.split(".")[0] not in allowed]
    assert not found, found


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


def test_an_lda_run_loads_no_scipy(tmp_path):
    paths = datasets.write_corpus(datasets.gen_lda(30, 40, 3, 10, seed=1), str(tmp_path))
    cfg = write_cfg(tmp_path, f"[data]\ndocs = {paths['docs']}\n[algorithm]\n"
                    "algorithm = lda\ntopics = 4\nepochs = 2\n[runtime]\np = 2\n")
    out = tmp_path / "run"
    assert _fresh_python(CLI_AND_SCIPY, "--out-dir", str(out), "--quiet",
                         "run", cfg) == "0 False"
    assert len(read_metrics(str(out / "metrics.csv"))) == 2


# runs `icflow` in a fresh interpreter and prints its exit code and whether
# `numpy.ma` got loaded: the first plain `np.unique` or `np.union1d` call
# imports it, about 15 ms and 1 MB that neither command needs
CLI_AND_NUMPY_MA = ("import sys; from icflow.cli import main; "
                    "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)")


def test_run_and_replay_load_no_numpy_ma(tmp_path):
    out = tmp_path / "run"
    assert _fresh_python(CLI_AND_NUMPY_MA, "--quiet", "--out-dir", str(out), "run",
                         write_cfg(tmp_path, MINIMAL)) == "0 False"
    assert _fresh_python(CLI_AND_NUMPY_MA, "--quiet", "replay", str(out / "trace.txt"),
                         "--staleness", "1", "--workers", "2") == "0 False"


def test_the_checker_imports_no_simulator():
    """`icflow.ssp` holds the whole trace checker; it must not load the
    simulator, scheduler, dataset or algorithm code whose runs it checks."""
    assert _fresh_python(
        "import sys, icflow.ssp; print(*(m for m in sorted(sys.modules) if m in "
        "('icflow.cli', 'icflow.datasets', 'icflow.sap', 'icflow.simcluster') "
        "or m.startswith('icflow.algorithms')))") == ""


def test_config_values_are_read_as_written(tmp_path, capsys):
    # no % interpolation, and no [DEFAULT] keys copied into every section
    for body, line in (
        ("[algorithm]\nalgorithm = lasso\nlam = 5%\n",
         "[algorithm] lam = '5%' is not a number"),
        ("[algorithm]\nalgorithm = lasso\n[runtime]\np = 2\nseed = %(p)s\n",
         "[runtime] seed = '%(p)s' is not an integer"),
        ("[DEFAULT]\np = 3\n[algorithm]\nalgorithm = lasso\n",
         "unknown section [DEFAULT]; expected [data], [algorithm] or [runtime]"),
    ):
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "--quiet", "run",
                     write_cfg(tmp_path, body)]) == EXIT_CONFIG, body
        assert capsys.readouterr().err.splitlines() == [f"configuration error: {line}"]
        assert not out.exists()
    # an empty [DEFAULT] section changes nothing
    assert parse_config(write_cfg(tmp_path, "[DEFAULT]\n" + MINIMAL)) \
        == parse_config(write_cfg(tmp_path, MINIMAL, "plain.cfg"))


def test_outputs_that_cannot_be_written_exit_2(tmp_path, capsys):
    # a file as the output directory or in its path, and a directory where an
    # output file goes; `run` checks its directory before it reads the data
    afile = tmp_path / "afile"
    afile.write_text("")
    unreadable = write_cfg(tmp_path, f"[data]\nx = {afile}\ny = {afile}\n"
                           "[algorithm]\nalgorithm = lasso\n", "unreadable.cfg")
    taken = tmp_path / "taken"
    (taken / "metrics.csv").mkdir(parents=True)
    (taken / "lasso_X.npy").mkdir()
    for argv, path in (
        (["--out-dir", str(afile), "run", unreadable], afile),
        (["--out-dir", str(afile / "sub"), "gen", "lasso"], afile / "sub"),
        (["--out-dir", str(taken), "run", write_cfg(tmp_path, MINIMAL)],
         taken / "metrics.csv"),
        (["--out-dir", str(taken), "gen", "lasso"], taken / "lasso_X.npy"),
    ):
        assert main([*argv[:2], "--quiet", *argv[2:]]) == EXIT_CONFIG, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, (argv, err)
        assert err[0].startswith("configuration error: [Errno "), (argv, err)
        assert err[0].endswith(f": {str(path)!r}"), (argv, err)


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


def _icflow(*args, timeout=60):
    """`python -m icflow.cli` in a new interpreter, so that numpy's warnings
    reach standard error as a user sees them."""
    src = os.path.dirname(os.path.dirname(icflow.__file__))
    return subprocess.run([sys.executable, "-m", "icflow.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=timeout)


def test_an_input_too_large_to_allocate_exits_2(tmp_path):
    # each of these asked numpy for petabytes and ended in an _ArrayMemoryError
    # traceback; sizes beyond any address space fail at once, whatever the
    # overcommit policy, so the test never touches real memory
    lda = "[algorithm]\nalgorithm = lda\ntopics = 2\n[runtime]\np = 1\n"
    configs = []
    for name, V, count in (("many_tokens", 5, 10**15), ("many_words", 10**15, 2)):
        docs = tmp_path / f"{name}.txt"
        docs.write_text(f"2\n{V}\n2\n1 1 {count}\n2 3 1\n")
        configs.append(write_cfg(tmp_path, f"[data]\ndocs = {docs}\n{lda}", f"{name}.cfg"))
    configs.append(write_cfg(tmp_path, f"[data]\nn = {10**14}\n[algorithm]\n"
                             "algorithm = lasso\n[runtime]\np = 1\n", "many_rows.cfg"))
    for cfg in configs:
        proc = _icflow("--out-dir", str(tmp_path / "out"), "--quiet", "run", cfg)
        assert proc.returncode == EXIT_CONFIG, (cfg, proc.stderr)
        assert proc.stderr.startswith("configuration error: Unable to allocate ") \
            and proc.stderr.count("\n") == 1, proc.stderr


def test_a_diverging_lasso_run_exits_3(tmp_path):
    # 16 concurrent block updates with a tiny lambda on a block-correlated
    # design overshoot until the objective overflows; such a run once wrote
    # `inf` rows and exited 0, then printed numpy's overflow warning first
    paths = datasets.write_lasso(datasets.gen_lasso(
        200, 50, 10, seed=1, block_size=50, block_rho=0.9), str(tmp_path))
    cfg = write_cfg(tmp_path, f"[data]\nx = {paths['X']}\ny = {paths['y']}\n"
                    "[algorithm]\nalgorithm = lasso\nlam = 0.001\n[runtime]\n"
                    "p = 16\ntopology = full_p2p\nmax_clocks = 200\n")
    out = tmp_path / "out"
    proc = _icflow("--out-dir", str(out), "--quiet", "run", cfg)
    assert proc.returncode == EXIT_INVARIANT
    assert re.fullmatch(r"invariant violation: objective became non-finite "
                        r"\((inf|nan)\) at iteration \d+\n", proc.stderr), proc.stderr
    assert not (out / "metrics.csv").exists()


def test_a_bandwidth_no_message_can_cross_exits_2(tmp_path, capsys):
    # a 73-byte message at 1e-320 bytes per tick once ended in an
    # OverflowError traceback
    cfg = write_cfg(tmp_path, MINIMAL.replace("p = 2", "p = 4\nbandwidth = 1e-320"))
    assert main(["--out-dir", str(tmp_path / "out"), "--quiet", "run", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.fullmatch(r"configuration error: a \d+-byte message has no finite "
                        r"transmission time at 1e-320 bytes per tick\n", err), err


SMALL = (MINIMAL.replace("max_clocks = 5", "max_clocks = 3")
         .replace("n = 60\nm = 12", "n = 50\nm = 20"))


def test_a_delivery_past_int64_ticks_exits_2(tmp_path, capsys):
    # at 1e-300 bytes per tick a message takes about 1e302 ticks: such a run
    # once exited 0 with 300-digit tick cells in metrics.csv
    cfg = write_cfg(tmp_path, SMALL.replace("p = 2", "p = 4\nbandwidth = 1e-300"))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "--quiet", "run", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.fullmatch(r"configuration error: a \d+-byte message sent at tick \d+ "
                        r"is delivered after tick 9223372036854775807 at "
                        r"1e-300 bytes per tick\n", err), err
    assert not (out / "metrics.csv").exists()


def test_a_compute_pass_past_int64_ticks_exits_2(tmp_path, capsys):
    # a 1e308-fold straggler once ended in an OverflowError traceback (exit
    # 1); a 1e300-fold one sent its first commit at about tick 5e300; and one
    # worker on full P2P, which sends nothing, exited 0 with ticks near
    # 3.6e31 in metrics.csv and trace.txt
    for runtime, worker, factor in (
        ("p = 4\nstraggler = 1:1e308", 1, "1e+308"),
        ("p = 4\nstraggler = 1:1e300", 1, "1e+300"),
        ("p = 1\ntopology = full_p2p\nstraggler = 0:1e30", 0, "1e+30"),
    ):
        cfg = write_cfg(tmp_path, SMALL.replace("p = 2", runtime))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "--quiet", "run", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: straggler factor {factor} makes worker {worker}'s "
            "pass at tick 0 end after tick 9223372036854775807\n")
        assert not (out / "metrics.csv").exists()


def test_extra_passes_behind_a_huge_straggler_end_in_bounded_work(tmp_path):
    # with no cap on the extra passes at one clock this run took 83 s and
    # wrote a 586 MB trace: a 1e5-fold straggler's pass lasts 1e5+ ticks,
    # and the others took a pass at every tick of it
    P, clocks = 7, 7
    cfg = write_cfg(tmp_path, "[data]\nn = 200\nm = 17\n[algorithm]\n"
                    f"algorithm = lasso\n[runtime]\np = {P}\ntopology = halton\n"
                    f"staleness = 3\nmax_clocks = {clocks}\n"
                    "straggler = 0:1e5:0:10\nslow_worker_extras = true\n")
    out = tmp_path / "out"
    proc = _icflow("--out-dir", str(out), "--quiet", "run", cfg, timeout=20)
    assert proc.returncode == EXIT_OK and not proc.stderr, proc.stderr
    rows = [line.split(",") for line in (out / "trace.txt").read_text().splitlines()[1:]]
    passes = Counter((r[2], r[3]) for r in rows if r[1] == "compute_start")
    assert max(passes.values()) == 1 + MAX_EXTRA_PASSES
    # README's bound: at most 3p + 3 events a pass, 3 a clock advance and 1
    # a finish, per worker
    assert len(rows) <= P * clocks * ((1 + MAX_EXTRA_PASSES) * (3 * P + 3) + 3) + P



def test_readme_states_the_runtime_keys_and_the_extra_pass_cap():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("| algorithm | `[runtime]` keys |\n")[1].split("\n\n")[0]
    rows = re.findall(r"^\| (\w+) \| (.*) \|$", section, re.MULTILINE)
    table = {algo: re.findall(r"`(\w+)`", keys) for algo, keys in rows}
    assert table == {algo: list(spec[3]) for algo, spec in _ALGORITHMS.items()}
    caps = re.findall(r"at most (\d+) times", " ".join(readme.split()))
    assert caps == [str(MAX_EXTRA_PASSES)]


# The config fuzzer: tiny seeded configs over every algorithm and every key,
# with extreme valid values. The data keys, max_clocks, epochs and steps are
# always given and tiny, so the per-run time limit catches only work without
# a bound; a large straggler behind extra passes is the case above.
FUZZ_RUNTIME = {
    "p": ["1", "2", "3", "7", "40"],
    "staleness": ["0", "1", "2", "5"],
    "seed": ["0", "7", "123456789"],
    "max_clocks": ["1", "2", "3"],
    "topology": ["master_slave", "full_p2p", "halton"],
    "codec": ["full", "sufficient_factor"],
    "scheduler": ["fixed", "sap", "random", "round_robin"],
    "bandwidth": ["1e-300", "1e-9", "1", "4096", "1e300"],
    "latency": ["0", "1", "1000", str(10**17)],
    "straggler": ["", "{w}:3", "{w}:1e15", "{w}:1e15:0:10", "{w}:1e3:5:1e300"],
    "slow_worker_extras": ["false", "true"],
}
FUZZ_SIZES = {"max_clocks", "epochs", "steps"}
FUZZ_KEYS = {
    "lasso": ({"n": ["1", "5", "30"], "m": ["1", "4", "20"], "k_true": ["0", "1"],
               "seed": ["0", "9"]},
              {"lam": ["1e-300", "0.01", "1", "1e300"]}),
    "lda": ({"n_docs": ["6", "45"], "v": ["12", "45"], "k": ["1", "3"],
             "doc_len": ["1", "8"], "seed": ["0", "9"]},
            {"topics": ["1", "4"], "epochs": ["1", "2"]}),
    "mlr": ({"n": ["1", "20"], "d": ["1", "6"], "k": ["2", "4"], "seed": ["0", "9"]},
            {"steps": ["1", "3"], "batch": ["1", "64"], "eta0": ["1e-300", "0.1", "1e300"]}),
}


def _fuzz_config(seed):
    """(algorithm, p, staleness, INI text); each key other than a size is
    left out or given one of its values."""
    rng = random.Random(seed)
    algorithm = sorted(FUZZ_KEYS)[seed % 3]
    data, params = FUZZ_KEYS[algorithm]
    runtime = {key: FUZZ_RUNTIME[key] for key in _ALGORITHMS[algorithm][3]}

    def pick(keys, always=FUZZ_SIZES):
        return {k: rng.choice(v) for k, v in keys.items()
                if k in always or rng.random() < 0.7}

    chosen = {"data": pick(data, set(data)), "algorithm": pick(params),
              "runtime": pick(runtime)}
    p = int(chosen["runtime"].get("p", _RUNTIME["p"][1]))
    if "straggler" in chosen["runtime"]:
        chosen["runtime"]["straggler"] = chosen["runtime"]["straggler"].format(
            w=rng.randrange(p))
    chosen["algorithm"]["algorithm"] = algorithm
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in chosen.items())
    return algorithm, p, chosen["runtime"].get("staleness", "0"), text


def test_fuzzed_configs_exit_cleanly_in_bounded_time(tmp_path, capsys):
    def hung(signum, frame):
        raise TimeoutError("the run did not end within 10 s")

    codes = Counter()
    old = signal.signal(signal.SIGALRM, hung)
    try:
        for seed in range(60):
            algorithm, p, staleness, text = _fuzz_config(seed)
            cfg = write_cfg(tmp_path, text, f"fuzz{seed}.cfg")
            out = tmp_path / f"fuzz{seed}"
            signal.alarm(10)
            code = main(["--out-dir", str(out), "--quiet", "run", cfg])
            signal.alarm(0)
            err = capsys.readouterr().err
            codes[algorithm, code] += 1
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT), (seed, text, err)
            if code != EXIT_OK:
                assert err.count("\n") == 1 and err.endswith("\n"), (seed, text, err)
                continue
            assert err == "", (seed, text, err)
            assert main(["--quiet", "replay", str(out / "trace.txt"), "--staleness",
                         staleness, "--workers", str(p)]) == EXIT_OK, (seed, text)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    # every algorithm both finishes and fails somewhere in the list
    assert {algorithm for algorithm, code in codes if code == EXIT_OK} == set(FUZZ_KEYS)
    assert {code for _, code in codes} >= {EXIT_OK, EXIT_CONFIG}, codes


def test_an_empty_y_file_is_one_configuration_error_line(tmp_path):
    # numpy's "input contained no data" warning once came first
    lasso = datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1), str(tmp_path))
    mlr = datasets.write_mlr(datasets.gen_mlr(30, 5, 3, seed=1), str(tmp_path))
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    for algorithm, key, matrix in (("lasso", "x", lasso["X"]), ("mlr", "u", mlr["U"])):
        cfg = write_cfg(tmp_path, f"[data]\n{key} = {matrix}\ny = {empty}\n"
                        f"[algorithm]\nalgorithm = {algorithm}\n")
        proc = _icflow("--quiet", "--out-dir", str(tmp_path / "out"), "run", cfg)
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
    # any real floating dtype is read as float64
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
    if D > os.path.getsize(path):
        raise ConfigurationError(f"{path}: header gives D = {D} documents in a file "
                                 f"of {os.path.getsize(path)} bytes")
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
    # 2**63 tokens in all (past int64), 2**62 tokens (2**65 bytes) and 2**62
    # documents used to end in a ValueError from numpy
    for triples, D, message in (
            (((1, 1, 2**62), (2, 3, 2**62)), 2, "more than an array can hold"),
            (((2, 1, 2**62),), 2, "more than an array can hold"),
            ((), 2**62, f"header gives D = {2**62} documents in a file of 24 bytes")):
        corpus(*triples, D=D)
        with pytest.raises(ConfigurationError, match=message):
            datasets.read_corpus(str(tmp_path / "docs.txt"))
        assert main(["--quiet", "run", cfg]) == EXIT_CONFIG, (triples, D)
    # the last is not UTF-8, which used to end in a UnicodeDecodeError
    for text in (b"", b"2 3", b"0 3 0", b"2 0 0", b"2 3 2\n1 1 1\n",
                 b"2 3 1\n1 1 \xff\n"):
        (tmp_path / "docs.txt").write_bytes(text)
        with pytest.raises(ConfigurationError, match="docs.txt"):
            datasets.read_corpus(str(tmp_path / "docs.txt"))
        assert main(["--quiet", "run", cfg]) == EXIT_CONFIG, text


def test_a_corpus_header_with_more_documents_than_bytes_exits_2(tmp_path, capsys):
    # each document the header names costs memory; 11 bytes cannot back 10**5
    docs = tmp_path / "docs.txt"
    docs.write_text("100000\n8\n0\n")
    cfg = write_cfg(tmp_path, f"[data]\ndocs = {docs}\n[algorithm]\nalgorithm = lda\n"
                    "topics = 2\nepochs = 1\n[runtime]\np = 2\n")
    t0 = time.monotonic()
    assert main(["--out-dir", str(tmp_path / "out"), "--quiet", "run", cfg]) == EXIT_CONFIG
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err == (
        f"configuration error: {docs}: header gives D = 100000 documents "
        "in a file of 11 bytes\n")


# token -> the bytes that replace it; each keeps a file the C pass can read
# or sends it field by field, where `int()` accepts or rejects it
TOKEN_EDITS = {
    "plus": lambda t: b"+" + t,
    "minus": lambda t: b"-" + t,
    "underscore": lambda t: t[:1] + b"_" + t[1:] if len(t) > 1 else t + b"_0",
    "leading zeros": lambda t: b"000" + t,
    "non-ASCII digit": lambda t: t + "３".encode(),  # fullwidth 3
    "18 digits": lambda t: t.rjust(18, b"0"),
    "18-digit value": lambda t: b"123456789012345678",
    "19 digits": lambda t: t.rjust(19, b"0"),
    "19-digit value": lambda t: b"1" + b"0" * 18,
    "19-digit overflow": lambda t: b"9" * 19,
    "20 digits": lambda t: t.rjust(20, b"0"),
    "20-digit value": lambda t: b"9" * 20,
    "not UTF-8": lambda t: t + b"\xff",
    "Latin-1 letter": lambda t: b"\xe9" + t,
}
# separator -> its replacement
SEPARATOR_EDITS = {
    "\\x1c": lambda s: b"\x1c",
    "\\x1f": lambda s: b"\x1f",
    "\\x85": lambda s: "\x85".encode(),
    "no-break space": lambda s: "\xa0".encode(),
    "tab": lambda s: b"\t",
    "form feed": lambda s: b"\x0c",
    "vertical tab": lambda s: b"\x0b",
    "CR": lambda s: b"\r",
    "CRLF": lambda s: s.replace(b"\n", b"\r\n"),
    "double": lambda s: s + s,
}
# whole file -> the file
FILE_EDITS = {
    "as written": lambda raw: raw,
    "CRLF": lambda raw: raw.replace(b"\n", b"\r\n"),
    "no final newline": lambda raw: raw.rstrip(b"\n"),
    "leading blank lines": lambda raw: b"\n \n" + raw,
    "one line": lambda raw: raw.replace(b"\n", b" "),
    "empty": lambda raw: b"",
    "whitespace only": lambda raw: b" \n\t",
    "truncated": lambda raw: raw[: len(raw) // 2],
}


def _int_fields(path):
    """Every field of `path` through `str.split` and `int()`."""
    with open(path) as f:
        return np.array(list(map(int, f.read().split())), dtype=np.int64)


def _fields(read, path):
    """The fields `read` parses from `path`, or its error."""
    try:
        return read(path).tolist()
    except (ValueError, OverflowError) as e:
        return f"{type(e).__name__}: {e}"


def _outcome(read, path):
    """What `read` returns, or its error; a count too large to allocate ends
    in a MemoryError, which `icflow run` also reports with exit code 2."""
    try:
        return read(path)
    except (ConfigurationError, MemoryError) as e:
        return f"{type(e).__name__}: {e}"


def test_the_corpus_reader_matches_int_on_any_bytes(tmp_path, monkeypatch):
    parsed = []  # the arrays np.fromstring returned, the last one last
    fromstring = np.fromstring

    def spy(*args, **kwargs):
        parsed.append(fromstring(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(np, "fromstring", spy)
    path = str(tmp_path / "docs.txt")
    rng = random.Random(3)
    outcomes = Counter()
    for seed in range(8):
        corpus = datasets.gen_lda(rng.randint(1, 6), rng.randint(2, 9), 2, 5, seed=seed)
        raw = Path(datasets.write_corpus(corpus, str(tmp_path))["docs"]).read_bytes()
        parts = re.split(rb"(\s+)", raw.strip())  # tokens at even indices
        cases = [(name, edit(raw)) for name, edit in FILE_EDITS.items()]
        for edits, at in ((TOKEN_EDITS, range(0, len(parts), 2)),
                          (SEPARATOR_EDITS, range(1, len(parts), 2))):
            for name, edit in edits.items():
                edited = list(parts)
                for i in rng.sample(at, min(len(at), rng.randint(1, 3))):
                    edited[i] = edit(edited[i])
                cases.append((name, b"".join(edited) + b"\n"))
        for name, data in cases:
            Path(path).write_bytes(data)
            assert _fields(datasets._read_int_fields, path) == _fields(_int_fields, path), \
                (name, data)
            got = _outcome(datasets.read_corpus, path)
            with monkeypatch.context() as m:
                m.setattr(datasets, "_read_int_fields", _int_fields)
                assert got == _outcome(datasets.read_corpus, path), (name, data)
            if not isinstance(got, str):
                assert got == _reference_read_corpus(path)
            outcomes[isinstance(got, str)] += 1
            if name == "as written":  # a `write_corpus` file takes the C pass
                assert datasets._read_int_fields(path) is parsed[-1]
    # both accepted and rejected files were compared
    assert outcomes[False] > 50 and outcomes[True] > 50, outcomes


def test_replay_subcommand_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, MINIMAL)
    main(["--out-dir", str(out), "--quiet", "run", cfg])
    trace = str(out / "trace.txt")
    assert main(["--quiet", "replay", trace,
                 "--staleness", "1", "--workers", "2"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    # without --quiet, the report: one line per check, in check order
    assert main(["replay", trace, "--staleness", "1", "--workers", "2"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        f"PASS {name}: ok" for name in ("ticks_non_decreasing", "block_unblock_matched",
                                        "messages_delivered", "staleness_protocol")]
    # corrupt the trace: forge a huge clock jump followed by a commit
    with open(trace) as f:
        lines = f.read().splitlines()
    lines = [ln for ln in lines if ",finish," not in ln]
    lines.append("9999,clock,0,99,0,0,0,0")
    lines.append("9999,commit,0,99,9999,99,1,37")
    bad = tmp_path / "bad_trace.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(bad),
                 "--staleness", "1", "--workers", "2"]) == EXIT_INVARIANT
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("FAIL staleness_protocol: event "), last


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

def test_report_labels_same_named_files_by_their_directories(tmp_path, capsys):
    # `icflow run` always writes metrics.csv, so two runs share a basename
    header = ("iteration,tick,objective,mean_staleness,max_staleness,"
              "blocked_ticks,bytes_sent")
    paths = []
    for run, rows in (("a", "1,10,5.0,0,0,0,0\n"), ("b", "1,30,4.0,0,0,0,0\n")):
        (tmp_path / run).mkdir()
        paths.append(tmp_path / run / "metrics.csv")
        paths[-1].write_text(header + "\n" + rows)
    assert main(["report", *map(str, paths), "--tolerance", "1e9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "iteration,a/metrics.csv,b/metrics.csv" in lines
    assert "a/metrics.csv,10,5.000000e+00" in lines
    assert "b/metrics.csv: 30" in lines
    assert "ratio ticks_to_tol(a/metrics.csv)/ticks_to_tol(b/metrics.csv) = 0.333" in lines
    # a lone file keeps its basename
    assert main(["report", str(paths[0])]) == 0
    assert "iteration,metrics.csv" in capsys.readouterr().out.splitlines()


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


def test_malformed_matrix_files_exit_2(tmp_path, capsys):
    import scipy.io

    lasso = datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1), str(tmp_path))
    mlr = datasets.write_mlr(datasets.gen_mlr(30, 5, 3, seed=1), str(tmp_path))
    for algorithm, key, paths in (("lasso", "x", lasso), ("mlr", "u", mlr)):
        X = np.load(paths[key.upper()])
        empty = tmp_path / f"{algorithm}_empty.npy"
        empty.write_bytes(b"")
        archive = tmp_path / f"{algorithm}.npz"  # np.load opens it as an NpzFile
        np.savez(archive, X=X)
        mtx = tmp_path / f"{algorithm}.mtx"
        scipy.io.mmwrite(str(mtx), X)
        for matrix in (paths["y"], empty, archive, mtx):
            with pytest.raises(ConfigurationError, match=str(matrix)):
                datasets.read_lasso(str(matrix), paths["y"])
            cfg = write_cfg(tmp_path, f"[data]\n{key} = {matrix}\ny = {paths['y']}\n"
                            f"[algorithm]\nalgorithm = {algorithm}\n[runtime]\np = 2\n")
            assert main(["--out-dir", str(tmp_path / "out"), "--quiet", "run", cfg]) \
                == EXIT_CONFIG, (algorithm, matrix)
            assert capsys.readouterr().err == \
                f"configuration error: {matrix}: not a .npy file\n"


def _matrix_run(tmp_path, name, algorithm, matrix, y):
    key = "x" if algorithm == "lasso" else "u"
    cfg = write_cfg(tmp_path, f"[data]\n{key} = {matrix}\ny = {y}\n[algorithm]\n"
                    f"algorithm = {algorithm}\n[runtime]\np = 2\n", f"{name}.cfg")
    out = tmp_path / name
    return main(["--out-dir", str(out), "--quiet", "run", cfg]), out


def test_a_npy_matrix_runs_the_same_under_any_name(tmp_path):
    lasso = datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1), str(tmp_path))
    mlr = datasets.write_mlr(datasets.gen_mlr(30, 5, 3, seed=1), str(tmp_path))
    for algorithm, paths in (("lasso", lasso), ("mlr", mlr)):
        npy = paths["X" if algorithm == "lasso" else "U"]
        # a .npy file is known by its magic bytes, whatever its name
        renamed = tmp_path / f"{algorithm}_npy.txt"
        renamed.write_bytes(Path(npy).read_bytes())
        outputs = []
        for name, matrix in (("npy", npy), ("renamed", renamed)):
            code, out = _matrix_run(tmp_path, f"{algorithm}_{name}", algorithm,
                                    matrix, paths["y"])
            assert code == EXIT_OK, (algorithm, name)
            outputs.append(_files(out))
        assert outputs[1] == outputs[0], algorithm


def test_complex_or_non_finite_data_files_exit_2(tmp_path, capsys):
    lasso = datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1), str(tmp_path))
    mlr = datasets.write_mlr(datasets.gen_mlr(30, 5, 3, seed=1), str(tmp_path))
    cases = []
    for algorithm, paths in (("lasso", lasso), ("mlr", mlr)):
        npy = paths["X" if algorithm == "lasso" else "U"]
        for value in (np.nan, np.inf):
            bad = np.load(npy)
            bad[2, 1] = value
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
            cases.append((algorithm, "vector nan", npy, path, path))
    for algorithm, name, matrix, y, named in cases:
        with pytest.raises(ConfigurationError, match=str(named)):
            datasets.read_lasso(str(matrix), str(y))
        assert _matrix_run(tmp_path, "bad", algorithm, matrix, y)[0] == EXIT_CONFIG, \
            (algorithm, name)
        err = capsys.readouterr().err
        assert str(named) in err and "unit-normalized" not in err, (algorithm, name)


def test_a_finite_matrix_whose_sum_overflows_is_read_without_a_warning(tmp_path):
    # the finiteness check sums the entries first; an overflowing sum sends
    # it to the entry-by-entry search, which finds nothing to reject
    paths = datasets.write_lasso(datasets.gen_lasso(30, 8, 3, seed=1), str(tmp_path))
    big = np.full((30, 8), 1e308)
    big[0, 0] = -1e308
    np.save(tmp_path / "big.npy", big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, _ = datasets.read_lasso(str(tmp_path / "big.npy"), paths["y"])
    assert np.array_equal(X, big)


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
    # without this check a 6x0 MLR matrix trained, and a 0xN one failed as
    # "zero column"
    y = tmp_path / "y.txt"
    for rows, cols in ((5, 0), (6, 0), (0, 5)):
        np.savetxt(y, np.zeros(rows), fmt="%d")
        npy = tmp_path / f"{rows}x{cols}.npy"
        np.save(npy, np.zeros((rows, cols)))
        for algorithm in ("lasso", "mlr"):
            _exits_2_naming(tmp_path, capsys, algorithm, npy, y)


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
