"""icflow benchmark: seeded inputs through `icflow run` and `icflow replay`.

    python3 perfbench/run.py --workload lasso_halton --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. The benchmark generates its inputs from `--seed` with
`icflow.datasets`, writes them and an INI config under `.perfbench_work/`,
and then repeats, in fresh processes, `icflow run` on the config and
`icflow replay` on the written trace until `--seconds` have passed (at least
three repeats). Every repeat's outputs are checked; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
A fixed host probe runs before, between and after the two children of each
repeat, and the end-to-end timings are scaled by it to a quiet host (see
host_scale), because a shared host's speed swings far more than a bound allows.

`--trace 0` reports the end-to-end metrics, measured untraced.
`--trace 1` alternates untraced and traced repeats and reports the per-layer
metrics of the traced ones (see probe.py); `tracing_overhead` compares the
two. See README.md for what each metric means and which workload moves it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")

# numpy and scipy in this process and in every child run single-threaded
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

MIN_REPEATS = 3

# Seconds host_probe takes on a quiet host. The end-to-end timings are scaled
# to such a host: see host_scale.
REFERENCE_PROBE_S = 0.1


def host_probe() -> float:
    """Seconds this host now takes for a fixed piece of interpreter and numpy
    work of the kind icflow does: numpy scalar indexing and sampling, small
    vector products, an event heap and dict updates. It runs in this process
    and never touches icflow, so a change to the program cannot change it."""
    import heapq

    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    counts = np.zeros((40, 16), dtype=np.int64)
    p = np.full(16, 1 / 16)
    vec = np.arange(256, dtype=float)
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(8000):
        k = int(rng.choice(16, p=p))
        counts[i % 40, k] += 1
        acc += float(vec @ vec[::-1]) * 1e-9
        heapq.heappush(heap, (i * 7 % 101, i, k))
        if len(heap) > 64:
            _, j, kk = heapq.heappop(heap)
            table[j % 97] = table.get(j % 97, 0) + kk
    assert counts.sum() == 8000 and acc > 0 and table
    return time.perf_counter() - t0


def host_scale(before: float, after: float, sensitivity: float) -> float:
    """Factor that turns seconds measured between two host probes into
    seconds on a quiet host. A shared host's speed swings by up to 2x over
    seconds to minutes; the probes next to a child measure the swing, which
    the factor takes out, and leave the program's own speed in the time.
    `sensitivity` is how strongly the workload's time follows the probe's."""
    return (REFERENCE_PROBE_S / ((before + after) / 2)) ** sensitivity


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# `host_sensitivity` is the log-log slope of the workload's time against the
# host probes next to it, from two sets of paired runs on a 2-vCPU VM. LDA's
# numpy scalar work follows the probe fully; the Lasso runs, which spend more
# of their time in the heap, dicts and a 1000x1000 Gram matrix, follow it
# less, and scaling them by the full ratio over-corrects.
WORKLOADS = {
    "lasso_halton": {
        "algorithm": "lasso",
        "data": {"n": 1000, "m": 1000, "k_true": 20},
        "runtime": {"p": 32, "staleness": 2, "topology": "halton",
                    "scheduler": "fixed", "straggler": "1:4:0:200",
                    "max_clocks": 10},
        "host_sensitivity": 0.75,
    },
    "lasso_sap": {
        "algorithm": "lasso",
        "data": {"n": 1000, "m": 1000, "k_true": 20,
                 "block_size": 10, "block_rho": 0.5},
        "runtime": {"p": 32, "staleness": 0, "topology": "master_slave",
                    "scheduler": "sap", "max_clocks": 10},
        "host_sensitivity": 0.75,
    },
    "lda_rotation": {
        "algorithm": "lda",
        "data": {"n_docs": 1000, "V": 2000, "K": 20, "mean_doc_len": 60,
                 "zipf_s": 1.0},
        "params": {"topics": 100, "epochs": 2},
        "runtime": {"p": 8},
        "host_sensitivity": 1.0,
    },
}

# the same shapes at a size that runs in about a second, for selftest.py
SMALL = {
    "lasso_halton": {"data": {"n": 300, "m": 100},
                     "runtime": {"p": 8, "max_clocks": 6}},
    "lasso_sap": {"data": {"n": 300, "m": 100},
                  "runtime": {"p": 8, "max_clocks": 6}},
    "lda_rotation": {"data": {"n_docs": 60, "V": 200, "mean_doc_len": 20},
                     "params": {"topics": 20}, "runtime": {"p": 4}},
}

def sized_spec(name: str, size: str) -> dict:
    spec = {k: dict(v) if isinstance(v, dict) else v for k, v in WORKLOADS[name].items()}
    if size == "small":
        for section, values in SMALL[name].items():
            spec[section].update(values)
    return spec


# ---------------------------------------------------------------------------
# inputs


def make_inputs(spec: dict, seed: int, wdir: str) -> dict:
    """Generate the dataset and INI config for one seed. Returns what the
    checks need to know about the inputs."""
    from icflow import datasets

    data_dir = os.path.join(wdir, "inputs")
    os.makedirs(data_dir)
    d = spec["data"]
    if spec["algorithm"] == "lasso":
        ds = datasets.gen_lasso(d["n"], d["m"], d["k_true"], seed=seed,
                                block_size=d.get("block_size", 0),
                                block_rho=d.get("block_rho", 0.0))
        paths = datasets.write_lasso(ds, data_dir)
        data_section = {"x": paths["X"], "y": paths["y"]}
        algo_section = {"algorithm": "lasso"}
        rows = spec["runtime"]["max_clocks"]
        tokens = 0
    else:
        corpus = datasets.gen_lda(d["n_docs"], d["V"], d["K"], d["mean_doc_len"],
                                  seed=seed, zipf_s=d["zipf_s"])
        paths = datasets.write_corpus(corpus, data_dir)
        data_section = {"docs": paths["docs"]}
        algo_section = {"algorithm": "lda", **spec["params"]}
        rows = spec["params"]["epochs"]
        tokens = sum(len(doc) for doc in corpus.docs)
    runtime = {**spec["runtime"], "seed": seed}
    cfg = os.path.join(wdir, "run.cfg")
    with open(cfg, "w") as f:
        for section, values in (("data", data_section), ("algorithm", algo_section),
                                ("runtime", runtime)):
            f.write(f"[{section}]\n")
            f.writelines(f"{k} = {v}\n" for k, v in values.items())
            f.write("\n")
    return {
        "config": cfg,
        "algorithm": spec["algorithm"],
        "rows": rows,
        "P": spec["runtime"]["p"],
        "staleness": spec["runtime"].get("staleness", 0),
        "passes": spec["runtime"]["p"] * rows if spec["algorithm"] == "lasso" else 0,
        "token_updates": tokens * rows,
        "host_sensitivity": spec["host_sensitivity"],
    }


# ---------------------------------------------------------------------------
# one repeat


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC
    # the same set and dict iteration order, hence the same work, every repeat
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def spawn(argv: list[str], out_dir: str, tag: str) -> dict:
    """Run a child to completion; wall time from just before the spawn, peak
    RSS of that child alone from wait4."""
    with open(os.path.join(out_dir, f"{tag}.out"), "w") as out, \
            open(os.path.join(out_dir, f"{tag}.err"), "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=out_dir)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
    # reaped here, so tell Popen not to wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "spawn": t0, "wall_s": t1 - t0,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6}


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_trace_counts(path: str) -> dict:
    counts: dict[str, int] = {}
    msg_ids = set()
    events = 0
    with open(path) as f:
        next(f)
        for line in f:
            parts = line.split(",", 5)
            counts[parts[1]] = counts.get(parts[1], 0) + 1
            if parts[1] == "msg_send":
                msg_ids.add(parts[4])
            events += 1
    counts["events"] = events
    counts["messages"] = len(msg_ids)
    return counts


def check_outputs(inputs: dict, out_dir: str) -> tuple[list[str], dict]:
    """Problems found in one run's output files, and the figures read from them."""
    problems = []
    with open(os.path.join(out_dir, "metrics.csv")) as f:
        rows = [line.split(",") for line in f.read().splitlines()[1:] if line]
    if len(rows) != inputs["rows"]:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {inputs['rows']}")
        return problems, {}
    objective = [float(r[2]) for r in rows]
    if not all(math.isfinite(v) for v in objective):
        problems.append("non-finite objective")
    if inputs["algorithm"] == "lasso" and objective[-1] > objective[0]:
        problems.append(f"objective rose from {objective[0]} to {objective[-1]}")
    last = rows[-1]
    figures = {
        "sim_ticks": int(last[1]), "blocked_ticks": int(last[5]),
        "sim_bytes": int(last[6]), "objective": objective[-1],
        "trace_mb": os.path.getsize(os.path.join(out_dir, "trace.txt")) / 1e6,
        "trace": read_trace_counts(os.path.join(out_dir, "trace.txt")),
    }
    passes = figures["trace"].get("compute_start", 0)
    if passes != inputs["passes"]:
        problems.append(f"trace has {passes} compute passes, expected {inputs['passes']}")
    figures["digests"] = {
        name: sha256(os.path.join(out_dir, name))
        for name in ("metrics.csv", "trace.txt", "traffic.csv")
    }
    return problems, figures


def repeat(inputs: dict, wdir: str, index: int, traced: bool) -> dict:
    out_dir = os.path.join(wdir, f"{'traced' if traced else 'run'}{index}")
    os.makedirs(out_dir)
    mode = "trace" if traced else "stamp"
    probes = [host_probe()]
    run = spawn([sys.executable, PROBE, "--mode", mode, "--report", "run.json", "--",
                 "--quiet", "--out-dir", out_dir, "run", inputs["config"]],
                out_dir, "run")
    probes.append(host_probe())
    rec = {"traced": traced, "run": run, "problems": [], "probes": probes,
           "run_scale": host_scale(probes[0], probes[1], inputs["host_sensitivity"])}
    if run["rc"] != 0:
        rec["problems"].append(f"icflow run exited {run['rc']}")
        return rec
    replay_args = ["--quiet", "replay", os.path.join(out_dir, "trace.txt"),
                   "--staleness", str(inputs["staleness"]),
                   "--workers", str(inputs["P"])]
    if traced:
        check = spawn([sys.executable, PROBE, "--mode", "trace", "--report",
                       "replay.json", "--", *replay_args], out_dir, "replay")
    else:
        check = spawn([sys.executable, "-c",
                       "import sys; from icflow.cli import main; sys.exit(main())",
                       *replay_args], out_dir, "replay")
    rec["replay"] = check
    probes.append(host_probe())
    rec["replay_scale"] = host_scale(probes[1], probes[2], inputs["host_sensitivity"])
    if check["rc"] != 0:
        rec["problems"].append(f"icflow replay exited {check['rc']}")
        return rec
    problems, figures = check_outputs(inputs, out_dir)
    rec["problems"] += problems
    rec["figures"] = figures
    with open(os.path.join(out_dir, "run.json")) as f:
        rec["probe"] = json.load(f)
    if traced:
        with open(os.path.join(out_dir, "replay.json")) as f:
            rec["probe_replay"] = json.load(f)
    loop = rec["probe"]["loop"]
    if not traced and "t0" in loop:
        rec["setup_s"] = loop["t0"] - run["spawn"]
        units = inputs["passes"] or inputs["token_updates"]
        rec["updates_per_s"] = units / (loop["t1"] - loop["t0"])
    elif not traced:
        rec["problems"].append("the run loop was never entered")
    return rec


# ---------------------------------------------------------------------------
# metrics


def end_to_end(recs: list[dict], scaled: bool = True) -> dict:
    """End-to-end samples of the untraced repeats, name -> (unit, values).
    Host timings are scaled to a quiet host, each by the probes next to its
    own child, unless `scaled` is false."""
    run = [r["run_scale"] if scaled else 1.0 for r in recs]
    replay = [r["replay_scale"] if scaled else 1.0 for r in recs]
    return {
        "wall_s": ("s", [r["run"]["wall_s"] * k for r, k in zip(recs, run)]),
        "setup_s": ("s", [r["setup_s"] * k for r, k in zip(recs, run)]),
        "updates_per_s": ("1/s", [r["updates_per_s"] / k for r, k in zip(recs, run)]),
        "check_s": ("s", [r["replay"]["wall_s"] * k for r, k in zip(recs, replay)]),
        "peak_rss_mb": ("MB", [r["run"]["rss_mb"] for r in recs]),
    }


def layer_figures(rec: dict, inputs: dict) -> dict:
    """Per-layer figures of one traced repeat, name -> (unit, value)."""
    probe = rec["probe"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    total_s: dict[str, float] = {}
    for name, _parent, n, total, own, size in probe["agg"] + rec["probe_replay"]["agg"]:
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + total
        calls[name] = calls.get(name, 0) + n
        items[name] = items.get(name, 0) + size
    main = next(s for s in probe["spans"] if s[2] == "cli.main")
    loop = probe["loop"]
    build_s = loop["t0"] - main[3] - loop["child0"]
    fig = rec["figures"]
    tc = fig["trace"]
    events = tc.get("compute_start", 0) + tc.get("compute_end", 0) + tc.get("msg_deliver", 0)
    rounds = calls.get("sap.dependency", 0)
    lasso = inputs["algorithm"] == "lasso"
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    sim_self = s("simcluster.run")
    return {
        "cli.interp_s": ("s", rec["run"]["wall_s"] - probe["in_process_s"]),
        "cli.import_s": ("s", probe["import_s"]),
        "cli.read_s": ("s", s("cli.read")),
        "cli.build_s": ("s", build_s),
        "cli.write_s": ("s", s("cli.main") - build_s + s("cli.write")),
        "engine.merge_s": ("s", s("engine.merge")),
        "engine.merge_calls": ("count", calls.get("engine.merge", 0)),
        "ssp.commit_s": ("s", s("ssp.commit")),
        "ssp.commit_calls": ("count", calls.get("ssp.commit", 0)),
        "ssp.apply_s": ("s", s("ssp.apply")),
        "ssp.updates_applied": ("count", items.get("ssp.apply", 0)),
        "ssp.read_s": ("s", s("ssp.read")),
        "ssp.read_calls": ("count", calls.get("ssp.read", 0)),
        "ssp.gate_s": ("s", s("ssp.gate")),
        "ssp.gate_calls": ("count", calls.get("ssp.gate", 0)),
        "ssp.blocked_ticks": ("ticks", fig["blocked_ticks"]),
        "ssp.trace_events": ("count", tc["events"]),
        "ssp.trace_mb": ("MB", fig["trace_mb"]),
        "ssp.serialize_s": ("s", s("ssp.serialize")),
        "ssp.parse_s": ("s", s("ssp.parse")),
        "ssp.replay_s": ("s", total_s.get("ssp.replay", 0.0)),
        "fabric.route_s": ("s", s("fabric.route")),
        "fabric.route_calls": ("count", calls.get("fabric.route", 0)),
        "fabric.link_sends": ("count", tc.get("msg_send", 0)),
        "fabric.hops_per_delivery": (
            "count", tc.get("msg_send", 0) / tc["messages"] if tc["messages"] else 0.0),
        "sap.rounds_s": ("s", s("sap.rounds")),
        "sap.rounds_calls": ("count", calls.get("sap.rounds", 0)),
        "sap.dependency_s": ("s", s("sap.dependency")),
        "sap.dependency_checks": ("count", probe["counts"].get("sap.dependency_checks", 0)),
        "sap.sample_s": ("s", s("sap.sample")),
        "sap.balance_s": ("s", s("sap.balance")),
        "sap.subsets_per_round": (
            "count", items.get("sap.dependency", 0) / rounds if rounds else 0.0),
        "sap.plan_s": ("s", s("sap.plan")),
        "lasso.problem_s": ("s", s("lasso.problem")),
        "lasso.delta_s": ("s", s("lasso.delta")),
        "lasso.delta_calls": ("count", calls.get("lasso.delta", 0)),
        "lasso.objective_s": ("s", s("lasso.objective")),
        "lda.rotation_s": ("s", s("lda.rotation")),
        "lda.token_s": ("s", s("lda.token")),
        "lda.tokens": ("count", calls.get("lda.token", 0)),
        "lda.loglik_s": ("s", s("lda.loglik")),
        "simcluster.run_s": ("s", total_s.get("simcluster.run", 0.0)),
        "simcluster.self_s": ("s", sim_self),
        "simcluster.events": ("count", events),
        "simcluster.self_us_per_event": ("us", sim_self / events * 1e6 if events else 0.0),
        "sim_ticks": ("ticks", fig["sim_ticks"]),
        "sim_bytes": ("bytes", fig["sim_bytes"]),
        "final_objective": ("1", fig["objective"] if lasso else 0.0),
        "final_loglik": ("1", 0.0 if lasso else fig["objective"]),
        "traced_wall_s": ("s", rec["run"]["wall_s"]),
    }


# these self times partition the traced run process's wall time, apart from
# the tracer's own set-up; selftest.py checks that they account for it
RUN_SELF_TIMES = (
    "cli.interp_s", "cli.import_s", "cli.read_s", "cli.build_s", "cli.write_s", "engine.merge_s",
    "ssp.commit_s", "ssp.apply_s", "ssp.read_s", "ssp.gate_s", "ssp.serialize_s",
    "fabric.route_s", "sap.rounds_s", "sap.dependency_s", "sap.sample_s",
    "sap.balance_s", "sap.plan_s", "lasso.problem_s", "lasso.delta_s",
    "lasso.objective_s", "lda.rotation_s", "lda.token_s", "lda.loglik_s",
    "simcluster.self_s",
)


def per_layer(traced: list[dict], untraced: list[dict], inputs: dict) -> dict:
    per_rec = [layer_figures(r, inputs) for r in traced]
    out = {name: (unit, [f[name][1] for f in per_rec]) for name, (unit, _) in per_rec[0].items()}
    # both sides scaled to a quiet host, so that the host's swings cancel
    overhead = (statistics.median(r["run"]["wall_s"] * r["run_scale"] for r in traced)
                / statistics.median(r["run"]["wall_s"] * r["run_scale"] for r in untraced)
                - 1)
    out["tracing_overhead"] = ("fraction", [overhead])
    return out


# ---------------------------------------------------------------------------
# main


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_ENV,
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    args = ap.parse_args()
    os.environ.update(THREAD_ENV)
    # this process, the host probes and every child share one CPU, so the
    # probes see the same slice of the host as the program they scale
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not os.path.isfile(os.path.join(SRC, "icflow", "cli.py")):
        print(f"perfbench: no icflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    wdir = os.path.join(WORK, args.workload)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    inputs = make_inputs(sized_spec(args.workload, args.size), args.seed, wdir)

    # repeat while the next repeat, as long as the slowest so far, still ends
    # within --seconds; untraced runs make at least MIN_REPEATS, traced runs
    # at least one untraced/traced pair
    recs: list[dict] = []
    start = time.monotonic()
    minimum = 1 if args.trace else MIN_REPEATS
    index, slowest = 0, 0.0
    while index < minimum or time.monotonic() - start + slowest <= args.seconds:
        t0 = time.monotonic()
        recs.append(repeat(inputs, wdir, index, traced=False))
        if args.trace:
            recs.append(repeat(inputs, wdir, index, traced=True))
        index += 1
        slowest = max(slowest, time.monotonic() - t0)

    # a repeat whose outputs differ from the first clean repeat's failed too
    reference = next((r["figures"]["digests"] for r in recs if not r["problems"]), None)
    for r in recs:
        if not r["problems"] and r["figures"]["digests"] != reference:
            r["problems"].append("output digests differ from the first repeat")
    good = [r for r in recs if not r["problems"]]
    failed = len(recs) - len(good)
    for r in recs:
        for p in r["problems"]:
            print(f"FAIL {'traced' if r['traced'] else 'untraced'} repeat: {p}",
                  file=sys.stderr)

    metrics: dict = {}
    raw: dict = {}
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if args.trace and traced and untraced:
        metrics = per_layer(traced, untraced, inputs)
    elif not args.trace and untraced:
        metrics = end_to_end(untraced)
        raw = end_to_end(untraced, scaled=False)

    env = environment()
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {len(recs)} attempted, {failed} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    if reference:
        for name, digest in reference.items():
            print(f"digest {args.workload} {name} {digest}")
    probes = [p for r in recs for p in r["probes"]]
    print(f"host probe median {statistics.median(probes):.4g} s "
          f"min {min(probes):.4g} max {max(probes):.4g} n={len(probes)}, "
          f"quiet host {REFERENCE_PROBE_S} s")
    for kind, figures in (("metric", metrics), ("unscaled", raw)):
        for name, (unit, values) in figures.items():
            print(f"{kind} {name} [{unit}] median {statistics.median(values):.6g} "
                  f"min {min(values):.6g} max {max(values):.6g} n={len(values)}")
    with open(os.path.join(wdir, "result.json"), "w") as f:
        json.dump({"args": vars(args), "environment": env, "digests": reference,
                   "samples": {k: v for k, (_, v) in metrics.items()},
                   "unscaled": {k: v for k, (_, v) in raw.items()},
                   "probes": [r["probes"] for r in recs],
                   "run_wall_s": [[r["traced"], r["run"]["wall_s"]] for r in recs],
                   "problems": [p for r in recs for p in r["problems"]]}, f, indent=1)

    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": unit}
                    for name, (unit, values) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
