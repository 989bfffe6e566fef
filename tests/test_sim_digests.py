"""Golden digests of the simulator's output files.

Each case runs `FuzzWorkload` with a windowed straggler and hashes the three
texts a run writes: the trace, the metrics and the traffic report. A change
to the simulator that moves a tick, a byte count or an event order fails
here; one that means to change them records new digests and says why. The
fuzz and SAP cases also pin `SimResult.pair_staleness`, every (origin,
destination) list in delivery order. The four shipped configs are pinned
the same way, through `icflow run`, with the report `icflow replay` prints
for each trace.

`FuzzWorkload` draws from numpy's `default_rng` and uses no BLAS, so the
digests do not depend on the BLAS build; a numpy release that changes the
`default_rng` streams (`integers`, `choice`, `normal`) would change them.
The SAP cases run Lasso, whose floating-point results, like those of the
shipped Lasso configs, may depend on the BLAS build.
"""
import hashlib
import pathlib

import pytest

from icflow.algorithms.lasso import LassoProblem
from icflow.cli import main, parse_config
from icflow.datasets import gen_lasso, gen_lda, write_corpus
from icflow.fabric import traffic_report
from icflow.sap import SapScheduler
from icflow.simcluster import (
    FuzzWorkload,
    LassoModelParallelWorkload,
    SimCluster,
    SimConfig,
    inject_straggler,
)

# (topology, staleness, slow_worker_extras) -> sha256 of trace + metrics +
# traffic, first 16 hex digits. The links are slow enough that on
# master-slave at staleness 1 with extras two extra commits reach the server
# after their round has been relayed.
GOLDEN = {
    ("master_slave", 0, False): "48f6e3e1fa436f2f",
    ("master_slave", 1, False): "6fca3452cf420cde",
    ("master_slave", 1, True): "36f16af0979b4ac4",
    ("master_slave", 3, False): "1acc0b5e6de19b62",
    ("master_slave", 3, True): "7c116004004e06e4",
    ("full_p2p", 0, False): "4fd3b7555ec779cc",
    ("full_p2p", 1, False): "330785a4eb371522",
    ("full_p2p", 1, True): "b18f5aec51c09df9",
    ("full_p2p", 3, False): "3e3c12db1f1957ac",
    ("full_p2p", 3, True): "de94cbf4b414aa5b",
    ("halton", 0, False): "750be6a058e87afc",
    ("halton", 1, False): "b7566dfd977ee407",
    ("halton", 1, True): "b1afc5a74f6cbd95",
    ("halton", 3, False): "9248056a68529343",
    ("halton", 3, True): "5e245034bdb2134a",
}

# the same cases -> sha256 of every (origin, destination) list of
# `SimResult.pair_staleness`, in delivery order, first 16 hex digits
GOLDEN_PAIRS = {
    ("master_slave", 0, False): "ae27cf8cd25a2cdc",
    ("master_slave", 1, False): "d099ef475c0ee9b4",
    ("master_slave", 1, True): "0584bca23c26b835",
    ("master_slave", 3, False): "5209770c20b473f9",
    ("master_slave", 3, True): "60c793a0b511b85d",
    ("full_p2p", 0, False): "8891aeb6f2a426cd",
    ("full_p2p", 1, False): "4859a2da75052381",
    ("full_p2p", 1, True): "4b5fb2b8cfbb56e4",
    ("full_p2p", 3, False): "ba62acf1160b677d",
    ("full_p2p", 3, True): "6d1baa36d672012a",
    ("halton", 0, False): "8cab4013fbe0ec33",
    ("halton", 1, False): "b5b48c612d3cf03e",
    ("halton", 1, True): "9b63cb498b1e0b02",
    ("halton", 3, False): "7cc49e8e97801c2a",
    ("halton", 3, True): "548910ef6b418cc7",
}


# (topology, staleness) -> the same digest for FuzzWorkload(60, 5,
# keys_per_update=40): each update touches most of its worker's 12-key
# stripe, so a worker that folds in several updates at once adds to one
# element many times in one apply. These digests also hash the final views.
GOLDEN_OVERLAPPING = {
    ("master_slave", 0): "50c8bce2625b4429",
    ("master_slave", 2): "3f310d83b1331302",
    ("full_p2p", 0): "2d37bf864516b896",
    ("full_p2p", 2): "56c0e6b3bfcf1cbf",
    ("halton", 0): "8e61d23b8cae577a",
    ("halton", 2): "456b6653f8917975",
}


def _pairs_digest(pair_staleness):
    """The digest of every (origin, destination) list of delivered staleness,
    each in delivery order."""
    text = "".join(f"{o},{d}:{st}\n" for (o, d), st in sorted(pair_staleness.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_config(topology, staleness, extras):
    """The config of a case: 5 workers on slow links, a windowed straggler."""
    return inject_straggler(
        SimConfig(P=5, staleness=staleness, topology=topology, bandwidth=16.0,
                  latency=1, max_clocks=8, seed=3, slow_worker_extras=extras),
        2, 4.0, (6, 60),
    )


def _digest(topology, staleness, extras, m=40, keys_per_update=3, views=False):
    """The digest of one run and that of its `pair_staleness`; with `views`,
    the bytes of every worker's final view and of the global values are
    hashed into the first too."""
    cfg = golden_config(topology, staleness, extras)
    sim = SimCluster(FuzzWorkload(m, 5, seed=11, keys_per_update=keys_per_update), cfg)
    res = sim.run()
    text = res.trace.to_text() + res.metrics_text() + traffic_report(res.traffic)
    data = text.encode()
    if views:
        data += b"".join(v.tobytes() for v in sim.store.views) + res.values.tobytes()
    return hashlib.sha256(data).hexdigest()[:16], _pairs_digest(res.pair_staleness)


CASES = [
    (topology, staleness, extras)
    for topology in ("master_slave", "full_p2p", "halton")
    for staleness in (0, 1, 3)
    for extras in ((False,) if staleness == 0 else (False, True))
]


@pytest.mark.parametrize("topology,staleness,extras", CASES)
def test_fuzz_runs_match_recorded_digests(topology, staleness, extras):
    assert _digest(topology, staleness, extras) == (
        GOLDEN[(topology, staleness, extras)], GOLDEN_PAIRS[(topology, staleness, extras)])


@pytest.mark.parametrize("topology,staleness", sorted(GOLDEN_OVERLAPPING))
def test_overlapping_applies_match_recorded_digests(topology, staleness):
    assert _digest(topology, staleness, False, m=60, keys_per_update=40,
                   views=True)[0] == GOLDEN_OVERLAPPING[(topology, staleness)]


# (topology, staleness) -> the same digest, with the final values, for a
# SAP-scheduled Lasso run with extras and a windowed straggler. At staleness
# above 0 a round's scheduler feedback comes after later rounds were
# scheduled, so these pin the order of `rounds` and `observe` calls. Each
# comes with the digest of the run's `pair_staleness`, as in GOLDEN_PAIRS.
GOLDEN_SAP = {
    ("halton", 2): ("dacb91718bbf267d", "54750ff4498447ae"),
    ("master_slave", 1): ("02c484eea29a9ee0", "67c1ca0e97182263"),
}


@pytest.mark.parametrize("topology,staleness", sorted(GOLDEN_SAP))
def test_sap_runs_under_staleness_match_recorded_digests(topology, staleness):
    P = 4
    ds = gen_lasso(60, 24, 4, seed=5, block_size=4, block_rho=0.5)
    problem = LassoProblem.from_raw(ds.X, ds.y)
    scheduler = SapScheduler(problem.X, P, pool_size=12, seed=1, gram=problem.gram)
    cfg = inject_straggler(
        SimConfig(P=P, staleness=staleness, topology=topology, bandwidth=64.0,
                  latency=1, max_clocks=8, seed=1, slow_worker_extras=True),
        1, 4.0, (4, 40),
    )
    res = SimCluster(LassoModelParallelWorkload(problem, P, scheduler), cfg).run()
    assert min(res.extra_passes[1:]) > 0 and sum(res.blocked_ticks) > 0
    text = res.trace.to_text() + res.metrics_text() + traffic_report(res.traffic)
    digest = hashlib.sha256(text.encode() + res.values.tobytes()).hexdigest()[:16]
    assert (digest, _pairs_digest(res.pair_staleness)) == GOLDEN_SAP[(topology, staleness)]


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
OUTPUTS = ("metrics.csv", "trace.txt", "traffic.csv", "summary.txt")

# config -> sha256 of each of OUTPUTS, first 16 hex digits. LDA and MLR do
# not run on the simulator yet: their trace is a header and their traffic
# file is empty.
SHIPPED = {
    "lasso_ssp.cfg": ("5add9abed4ed516c", "fb1c5a5450502373", "ac6bb34251c86690",
                      "f0e325c3feef652f"),
    "lasso_straggler.cfg": ("1fecb28640422033", "66ef1c04443f12b3", "688ae42d899210c4",
                            "ddf576260d7f93c0"),
    "lda_rotation.cfg": ("aed98c32f930e1c6", "a7cd6d508c4888ff", "bda4b4c3f2cb5d08",
                         "b26239b6d72c9b14"),
    "mlr_sfb.cfg": ("0b97508a541f5f50", "a7cd6d508c4888ff", "bda4b4c3f2cb5d08",
                    "1f47d580dfac122d"),
}
REPLAY_REPORT = (
    "PASS ticks_non_decreasing: ok\n"
    "PASS block_unblock_matched: ok\n"
    "PASS messages_delivered: ok\n"
    "PASS staleness_protocol: ok\n"
)


def test_every_shipped_config_is_pinned():
    assert sorted(SHIPPED) == sorted(p.name for p in CONFIGS.glob("*.cfg"))


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_configs_match_recorded_digests(name, tmp_path, capsys):
    config = str(CONFIGS / name)
    assert main(["--quiet", "--out-dir", str(tmp_path), "run", config]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()[:16]
                    for f in OUTPUTS)
    assert dict(zip(OUTPUTS, digests)) == dict(zip(OUTPUTS, SHIPPED[name]))
    runtime = parse_config(config).runtime
    assert main(["replay", str(tmp_path / "trace.txt"), "--staleness",
                 str(runtime.get("staleness", 0)), "--workers", str(runtime["p"])]) == 0
    assert capsys.readouterr().out == REPLAY_REPORT


# sha256 of each of OUTPUTS, first 16 hex digits, for an LDA run that reads
# its corpus from a `docs` file written by `write_corpus`. No shipped config
# reads a corpus file, and LDA's results depend on the order in which the
# reader lays out each document's tokens, so this pins the file-to-run path.
DOCS_FILE_RUN = ("ca5498281c0ad1df", "a7cd6d508c4888ff", "bda4b4c3f2cb5d08",
                 "56e6ff98a513f1b5")


def test_an_lda_run_from_a_docs_file_matches_recorded_digests(tmp_path):
    corpus = gen_lda(40, 30, 4, 12, seed=7, zipf_s=1.1)
    docs = write_corpus(corpus, str(tmp_path / "data"))["docs"]
    config = tmp_path / "lda.cfg"
    config.write_text(f"[data]\ndocs = {docs}\n[algorithm]\nalgorithm = lda\n"
                      "topics = 4\nepochs = 4\n[runtime]\np = 3\nseed = 5\n")
    assert main(["--quiet", "--out-dir", str(tmp_path / "out"), "run", str(config)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()[:16]
                    for f in OUTPUTS)
    assert dict(zip(OUTPUTS, digests)) == dict(zip(OUTPUTS, DOCS_FILE_RUN))
