"""Run one `icflow` command in this process and report timings.

    python3 probe.py --mode stamp --report out.json -- <icflow arguments>
    python3 probe.py --mode trace --report out.json -- <icflow arguments>

`stamp` is the untraced run: it records only the entry and exit times
(`time.monotonic`, comparable across processes) of the first call into the
run loop, `SimCluster.run` or `lda.run_rotation`, and otherwise behaves like
the `icflow` console script.

`trace` wraps public functions and methods of every icflow layer from
outside, patching each name where the program looks it up. Each wrapped call
is a frame on a stack; its self time is its duration minus that of its
wrapped children. Calls are aggregated as (name, parent) -> count, total,
self; the non-hot ones are also kept as spans with their parent. Everything
stays in memory and is written to the report when the command returns.

The process exit code is the icflow command's.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

STARTED = time.perf_counter()


class Tracer:
    def __init__(self):
        self.root = ["probe", 0.0, 0]  # [name, child seconds, span id]
        self.stack = [self.root]
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, total, self, items]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self)
        self.counts: dict[str, int] = {}
        self.loop: dict[str, float] = {}
        self._ids = 0

    def timed(self, name, fn, span=False, size=False):
        """Wrap `fn`; `span` keeps every call as a span, `size` sums len(result)."""
        stack, agg, spans, clock = self.stack, self.agg, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            self._ids += 1
            frame = [name, 0.0, self._ids]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                a = agg.get((name, parent[0]))
                if a is None:
                    a = agg[(name, parent[0])] = [0, 0.0, 0.0, 0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
                if span:
                    spans.append((frame[2], parent[2], name, t0, t1, dur - frame[1]))
            if size:
                a[3] += len(result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Count calls of a hot leaf without timing them; its time stays in
        the caller's self time."""
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def mark_loop(self, fn):
        """Record the caller's child time around the run loop, so the
        caller's self time splits into before (build) and after (write)."""
        def wrapper(*args, **kwargs):
            parent = self.stack[-1]
            self.loop = {"t0": time.perf_counter(), "child0": parent[1]}
            try:
                return fn(*args, **kwargs)
            finally:
                self.loop.update(t1=time.perf_counter(), child1=parent[1])

        return wrapper

    def report(self) -> dict:
        return {
            "agg": [[n, p, *v] for (n, p), v in self.agg.items()],
            "spans": self.spans,
            "counts": self.counts,
            "loop": self.loop,
        }


def _patch(owner, attr, make):
    """Replace owner.attr by make(original), keeping classmethods classmethods."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install_tracing(tracer: Tracer) -> None:
    from icflow import cli, datasets, fabric, sap, simcluster, ssp
    from icflow.algorithms import lasso, lda

    # (owner, attribute, layer name, keep spans, sum len(result))
    timed = [
        (datasets, "read_lasso", "cli.read", True, False),
        (datasets, "read_corpus", "cli.read", True, False),
        (lasso.LassoProblem, "from_raw", "lasso.problem", True, False),
        (cli, "traffic_report", "cli.write", True, False),
        (simcluster.SimResult, "metrics_text", "cli.write", True, False),
        (ssp.Trace, "to_text", "ssp.serialize", True, False),
        (ssp.Trace, "from_text", "ssp.parse", True, False),
        (cli, "replay", "ssp.replay", True, False),
        (simcluster.SimCluster, "run", "simcluster.run", True, False),
        (ssp.SspCore, "commit", "ssp.commit", False, False),
        (ssp.SspCore, "apply_pending", "ssp.apply", False, True),
        (ssp.SspCore, "catch_up", "ssp.apply", False, True),
        (ssp.SspCore, "read", "ssp.read", False, False),
        (ssp.SspCore, "advance_clock", "ssp.gate", False, False),
        (ssp.SspCore, "release_unblocked", "ssp.gate", False, False),
        (ssp.SspCore, "missing_required", "ssp.gate", False, False),
        (ssp.SspCore, "would_block_if_advanced", "ssp.gate", False, False),
        (fabric.HaltonTopology, "route", "fabric.route", False, False),
        (simcluster, "merge_payloads", "engine.merge", False, False),
        (simcluster.LassoModelParallelWorkload, "delta", "lasso.delta", False, False),
        (simcluster.LassoModelParallelWorkload, "objective", "lasso.objective", True, False),
        (sap.SapScheduler, "rounds", "sap.rounds", True, False),
        (sap, "prioritize_sample", "sap.sample", True, False),
        (sap, "build_independent_subsets", "sap.dependency", True, True),
        (sap, "balance_load", "sap.balance", True, False),
        (lda, "run_rotation", "lda.rotation", True, False),
        (lda, "build_rotation_plan", "sap.plan", True, False),
        (lda, "gibbs_token_update", "lda.token", False, False),
        (lda, "lda_log_likelihood", "lda.loglik", True, False),
    ]
    for owner, attr, name, span, size in timed:
        _patch(owner, attr, lambda fn, n=name, s=span, z=size: tracer.timed(n, fn, s, z))
    _patch(sap, "dependency_check", lambda fn: tracer.counted("sap.dependency_checks", fn))
    _patch(simcluster.SimCluster, "run", tracer.mark_loop)
    _patch(lda, "run_rotation", tracer.mark_loop)


def install_stamps(stamps: dict) -> None:
    from icflow import simcluster
    from icflow.algorithms import lda

    def stamped(fn):
        def wrapper(*args, **kwargs):
            first = "t0" not in stamps
            if first:
                stamps["t0"] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                if first:
                    stamps["t1"] = time.monotonic()

        return wrapper

    _patch(simcluster.SimCluster, "run", stamped)
    _patch(lda, "run_rotation", stamped)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("stamp", "trace"), required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("icflow_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.icflow_args[1:] if args.icflow_args[:1] == ["--"] else args.icflow_args

    if args.mode == "stamp":
        from icflow.cli import main as icflow_main

        stamps: dict = {}
        install_stamps(stamps)
        rc = icflow_main(argv)
        report = {"loop": stamps}
    else:
        tracer = Tracer()
        t0 = time.perf_counter()
        from icflow.cli import main as icflow_main

        import_s = time.perf_counter() - t0
        install_tracing(tracer)
        rc = tracer.timed("cli.main", icflow_main, span=True)(argv)
        report = tracer.report()
        report["import_s"] = import_s
        report["in_process_s"] = time.perf_counter() - STARTED
    with open(args.report, "w") as f:
        json.dump(report, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
