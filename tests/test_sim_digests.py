"""Golden digests of the simulator's output files.

Each case runs `FuzzWorkload` with a windowed straggler and hashes the three
texts a run writes: the trace, the metrics and the traffic report. A change
to the simulator that moves a tick, a byte count or an event order fails
here; one that means to change them records new digests and says why.

`FuzzWorkload` draws from numpy's `default_rng` and uses no BLAS, so the
digests do not depend on the BLAS build; a numpy release that changes the
`default_rng` streams (`integers`, `choice`, `normal`) would change them.
"""
import hashlib

import pytest

from icflow.fabric import traffic_report
from icflow.simcluster import FuzzWorkload, SimConfig, inject_straggler, run_simulation

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


def _digest(topology, staleness, extras):
    P = 5
    cfg = inject_straggler(
        SimConfig(P=P, staleness=staleness, topology=topology, bandwidth=16.0,
                  latency=1, max_clocks=8, seed=3, slow_worker_extras=extras),
        2, 4.0, (6, 60),
    )
    res = run_simulation(FuzzWorkload(40, P, seed=11, keys_per_update=3), cfg)
    text = res.trace.to_text() + res.metrics_text() + traffic_report(res.traffic)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


CASES = [
    (topology, staleness, extras)
    for topology in ("master_slave", "full_p2p", "halton")
    for staleness in (0, 1, 3)
    for extras in ((False,) if staleness == 0 else (False, True))
]


@pytest.mark.parametrize("topology,staleness,extras", CASES)
def test_fuzz_runs_match_recorded_digests(topology, staleness, extras):
    assert _digest(topology, staleness, extras) == GOLDEN[(topology, staleness, extras)]
