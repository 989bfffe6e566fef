"""Command-line front end: dataset generation, experiment runs from INI
configs, trace replay, and metrics reporting.

Exit codes: 0 success, 2 configuration error, 3 runtime invariant violation.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import datasets
from .algorithms.lasso import LassoProblem
from .algorithms import lda as lda_mod
from .algorithms import mlr as mlr_mod
from .engine import FixedBlockScheduler, UpdateDelta
from .errors import ConfigurationError, IcflowError
from .fabric import Codec, encoded_size, traffic_report
from .sap import RandomScheduler, RoundRobinScheduler, SapScheduler
from .simcluster import (
    METRICS_HEADER,
    SimCluster,
    SimConfig,
    LassoModelParallelWorkload,
    StragglerWindow,
    replay,
)
from .ssp import Trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

_ALGORITHMS = ("lasso", "lda", "mlr")
_TOPOLOGIES = ("master_slave", "full_p2p", "halton")
_CODECS = ("full", "sufficient_factor")
_DEFAULT_CODEC = "sufficient_factor"
_PRIORITY_MODES = ("fifo", "absolute_magnitude", "relative_magnitude")
_SCHEDULERS = ("fixed", "sap", "random", "round_robin")


@dataclass
class ExperimentConfig:
    data: dict = field(default_factory=dict)
    algorithm: dict = field(default_factory=dict)
    runtime: dict = field(default_factory=dict)

    def serialize(self) -> str:
        out = []
        for name, section in (
            ("data", self.data),
            ("algorithm", self.algorithm),
            ("runtime", self.runtime),
        ):
            out.append(f"[{name}]")
            for k in sorted(section):
                out.append(f"{k} = {section[k]}")
            out.append("")
        return "\n".join(out)


def _require_enum(section: str, key: str, value: str, allowed) -> str:
    if value not in allowed:
        raise ConfigurationError(
            f"[{section}] {key} = {value!r} is invalid; expected one of "
            f"{', '.join(allowed)}"
        )
    return value


def _get_int(section: dict, name: str, key: str, default=None, minimum=None) -> int:
    raw = section.get(key, default)
    if raw is None:
        raise ConfigurationError(f"[{name}] missing required key {key}")
    try:
        v = int(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(f"[{name}] {key} = {raw!r} is not an integer") from None
    if minimum is not None and v < minimum:
        raise ConfigurationError(f"[{name}] {key} = {v} must be >= {minimum}")
    return v


def _get_float(section: dict, name: str, key: str, default=None, minimum=None) -> float:
    raw = section.get(key, default)
    if raw is None:
        raise ConfigurationError(f"[{name}] missing required key {key}")
    try:
        v = float(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(f"[{name}] {key} = {raw!r} is not a number") from None
    if minimum is not None and v < minimum:
        raise ConfigurationError(f"[{name}] {key} = {v} must be >= {minimum}")
    return v


def parse_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as e:
        raise ConfigurationError(f"cannot parse {path}: {e}") from None
    cfg = ExperimentConfig()
    for name in ("data", "algorithm", "runtime"):
        if parser.has_section(name):
            getattr(cfg, name).update(dict(parser.items(name)))
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    algo = cfg.algorithm.get("algorithm")
    if algo is None:
        raise ConfigurationError("[algorithm] missing required key algorithm")
    _require_enum("algorithm", "algorithm", algo, _ALGORITHMS)
    rt = cfg.runtime
    _get_int(rt, "runtime", "p", default="4", minimum=1)
    _get_int(rt, "runtime", "staleness", default="0", minimum=0)
    _get_int(rt, "runtime", "seed", default="0")
    _get_int(rt, "runtime", "max_clocks", default="30", minimum=1)
    _require_enum(
        "runtime", "topology", rt.get("topology", "master_slave"), _TOPOLOGIES
    )
    _require_enum("runtime", "codec", rt.get("codec", _DEFAULT_CODEC), _CODECS)
    _require_enum(
        "runtime", "priority_mode", rt.get("priority_mode", "fifo"), _PRIORITY_MODES
    )
    _require_enum(
        "runtime", "scheduler", rt.get("scheduler", "fixed"), _SCHEDULERS
    )
    _get_float(rt, "runtime", "bandwidth", default="4096", minimum=1e-9)
    _get_int(rt, "runtime", "latency", default="1", minimum=0)
    parse_straggler(rt.get("straggler", ""), _get_int(rt, "runtime", "p", "4"))
    for key in ("x", "y", "docs", "u"):
        if key in cfg.data and not os.path.exists(cfg.data[key]):
            raise ConfigurationError(
                f"[data] {key} = {cfg.data[key]!r} does not exist"
            )


def parse_straggler(raw: str, P: int):
    """`worker:factor[:start:duration]`, empty for none."""
    raw = raw.strip()
    if not raw:
        return None
    parts = raw.split(":")
    if len(parts) not in (2, 4):
        raise ConfigurationError(
            f"[runtime] straggler = {raw!r}; expected worker:factor or "
            "worker:factor:start:duration"
        )
    try:
        worker = int(parts[0])
        factor = float(parts[1])
        start = float(parts[2]) if len(parts) == 4 else 0.0
        duration = float(parts[3]) if len(parts) == 4 else math.inf
    except ValueError:
        raise ConfigurationError(
            f"[runtime] straggler = {raw!r} has non-numeric fields"
        ) from None
    if not (0 <= worker < P):
        raise ConfigurationError(
            f"[runtime] straggler worker {worker} out of range for p = {P}"
        )
    if factor < 1:
        raise ConfigurationError("[runtime] straggler factor must be >= 1")
    return StragglerWindow(worker, factor, start, duration)


# ---------------------------------------------------------------------------
# experiment execution


def _build_lasso_problem(cfg: ExperimentConfig) -> LassoProblem:
    data = cfg.data
    if "x" in data:
        X, y = datasets.read_lasso(data["x"], data["y"])
    else:
        n = _get_int(data, "data", "n", default="200", minimum=1)
        m = _get_int(data, "data", "m", default="50", minimum=1)
        k_true = _get_int(data, "data", "k_true", default="10", minimum=0)
        seed = _get_int(data, "data", "seed", default="0")
        ds = datasets.gen_lasso(n, m, k_true, seed=seed)
        X, y = ds.X, ds.y
    lam = cfg.algorithm.get("lam")
    return LassoProblem.from_raw(X, y, lam=float(lam) if lam else None)


def _make_scheduler(kind: str, problem: LassoProblem, P: int, seed: int):
    if kind == "fixed":
        return FixedBlockScheduler(problem.m, P)
    if kind == "sap":
        return SapScheduler(problem.X, P, seed=seed)
    if kind == "random":
        return RandomScheduler(problem.m, P, seed=seed)
    return RoundRobinScheduler(problem.m, P)


def run_experiment(cfg: ExperimentConfig, out_dir: str, quiet: bool = False) -> dict:
    algo = cfg.algorithm["algorithm"]
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "metrics": os.path.join(out_dir, "metrics.csv"),
        "trace": os.path.join(out_dir, "trace.txt"),
        "traffic": os.path.join(out_dir, "traffic.csv"),
        "summary": os.path.join(out_dir, "summary.txt"),
    }
    if algo == "lasso":
        result = _run_lasso(cfg, paths)
    elif algo == "lda":
        result = _run_lda(cfg, paths)
    else:
        result = _run_mlr(cfg, paths)
    if not quiet:
        with open(paths["summary"]) as f:
            sys.stdout.write(f.read())
    return paths


def _runtime(cfg: ExperimentConfig) -> dict:
    rt = cfg.runtime
    P = _get_int(rt, "runtime", "p", default="4", minimum=1)
    return {
        "P": P,
        "staleness": _get_int(rt, "runtime", "staleness", default="0", minimum=0),
        "seed": _get_int(rt, "runtime", "seed", default="0"),
        "max_clocks": _get_int(rt, "runtime", "max_clocks", default="30", minimum=1),
        "topology": rt.get("topology", "master_slave"),
        "scheduler": rt.get("scheduler", "fixed"),
        "bandwidth": _get_float(rt, "runtime", "bandwidth", default="4096"),
        "latency": _get_int(rt, "runtime", "latency", default="1", minimum=0),
        "straggler": parse_straggler(rt.get("straggler", ""), P),
        "extras": rt.get("slow_worker_extras", "false").lower() == "true",
    }


def _write_summary(path: str, lines: list[str]) -> None:
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _run_lasso(cfg: ExperimentConfig, paths: dict) -> dict:
    rt = _runtime(cfg)
    problem = _build_lasso_problem(cfg)
    scheduler = _make_scheduler(rt["scheduler"], problem, rt["P"], rt["seed"])
    workload = LassoModelParallelWorkload(problem, rt["P"], scheduler)
    stragglers = (rt["straggler"],) if rt["straggler"] else ()
    sim = SimCluster(
        workload,
        SimConfig(
            P=rt["P"],
            staleness=rt["staleness"],
            topology=rt["topology"],
            bandwidth=rt["bandwidth"],
            latency=rt["latency"],
            max_clocks=rt["max_clocks"],
            seed=rt["seed"],
            slow_worker_extras=rt["extras"],
            stragglers=stragglers,
        ),
    )
    result = sim.run()
    with open(paths["metrics"], "w") as f:
        f.write(result.metrics_text())
    with open(paths["trace"], "w") as f:
        f.write(result.trace.to_text())
    with open(paths["traffic"], "w") as f:
        f.write(traffic_report(result.traffic))
    final_obj = workload.objective(result.values)
    total = result.final_tick * rt["P"] or 1
    _write_summary(paths["summary"], [
        "algorithm: lasso (block coordinate descent)",
        f"workers: {rt['P']}  staleness: {rt['staleness']}  "
        f"topology: {rt['topology']}  scheduler: {rt['scheduler']}",
        f"iterations: {len(result.metrics)}  final tick: {result.final_tick}",
        f"final objective: {final_obj:.10e}",
        f"blocked ticks: {sum(result.blocked_ticks)} "
        f"({sum(result.blocked_ticks) / total:.1%} of worker-ticks)",
        f"extra passes while waiting: {result.extra_passes}",
        f"bytes sent: {sum(s.bytes for s in result.traffic.values())}",
        f"update staleness: mean {result.stale_mean:.3f}, max {result.stale_max}",
    ])
    return paths


def _run_lda(cfg: ExperimentConfig, paths: dict) -> dict:
    rt = _runtime(cfg)
    data = cfg.data
    if "docs" in data:
        docs, V = datasets.read_corpus(data["docs"])
    else:
        n_docs = _get_int(data, "data", "n_docs", default="100", minimum=1)
        V = _get_int(data, "data", "v", default="50", minimum=1)
        K_gen = _get_int(data, "data", "k", default="5", minimum=1)
        doc_len = _get_int(data, "data", "doc_len", default="20", minimum=1)
        seed = _get_int(data, "data", "seed", default="0")
        docs = datasets.gen_lda(n_docs, V, K_gen, doc_len, seed=seed).docs
    K = _get_int(cfg.algorithm, "algorithm", "topics", default="5", minimum=1)
    epochs = _get_int(cfg.algorithm, "algorithm", "epochs", default="10", minimum=1)
    result = lda_mod.run_rotation(
        docs, V, K, rt["P"], epochs, seed=rt["seed"]
    )
    rows = [METRICS_HEADER]
    for i, ll in enumerate(result.log_likelihoods):
        rows.append(f"{i + 1},{(i + 1) * rt['P']},{ll:.12e},0.000000,0,0,0")
    with open(paths["metrics"], "w") as f:
        f.write("\n".join(rows) + "\n")
    with open(paths["trace"], "w") as f:
        f.write("tick,event,worker,clock,seq,timestamp,key_count,bytes\n")
    with open(paths["traffic"], "w") as f:
        f.write("link,messages,bytes,max_inflight,mean_delivered_staleness\n")
    _write_summary(paths["summary"], [
        "algorithm: lda (rotation-scheduled collapsed Gibbs)",
        f"workers: {rt['P']}  topics: {K}  epochs: {epochs}",
        f"documents: {len(docs)}  vocabulary: {V}",
        f"final log-likelihood: {result.log_likelihoods[-1]:.6e}",
    ])
    return paths


def _run_mlr(cfg: ExperimentConfig, paths: dict) -> dict:
    rt = _runtime(cfg)
    data = cfg.data
    if "u" in data:
        U, y = datasets.read_mlr(data["u"], data["y"])
        K = int(y.max()) + 1
    else:
        n = _get_int(data, "data", "n", default="500", minimum=1)
        D = _get_int(data, "data", "d", default="20", minimum=1)
        K = _get_int(data, "data", "k", default="5", minimum=2)
        seed = _get_int(data, "data", "seed", default="0")
        ds = datasets.gen_mlr(n, D, K, seed=seed)
        U, y = ds.U, ds.y
    problem = mlr_mod.MlrProblem(U=U, y=y, K=K)
    steps = _get_int(cfg.algorithm, "algorithm", "steps", default="50", minimum=1)
    batch = _get_int(cfg.algorithm, "algorithm", "batch", default="32", minimum=1)
    eta0 = _get_float(cfg.algorithm, "algorithm", "eta0", default="0.1")
    codec = Codec(cfg.runtime.get("codec", _DEFAULT_CODEC))
    A, objectives = mlr_mod.train_sgd(
        problem, steps, batch, eta0=eta0, seed=rt["seed"]
    )
    # wire accounting for one broadcast of each step's factors to P-1 peers
    bytes_sent = 0
    rows = [METRICS_HEADER]
    rng = np.random.default_rng(rt["seed"])
    for t in range(1, steps + 1):
        idx = rng.choice(problem.n, size=min(batch, problem.n), replace=False)
        factors = [(np.zeros(problem.K), np.zeros(problem.D))] * len(idx)
        size = encoded_size(
            UpdateDelta(payload=factors, timestamp=t, origin=0), codec
        )
        bytes_sent += size * (rt["P"] - 1)
        rows.append(
            f"{t},{t},{objectives[t - 1]:.12e},0.000000,0,0,{bytes_sent}"
        )
    with open(paths["metrics"], "w") as f:
        f.write("\n".join(rows) + "\n")
    with open(paths["trace"], "w") as f:
        f.write("tick,event,worker,clock,seq,timestamp,key_count,bytes\n")
    with open(paths["traffic"], "w") as f:
        f.write("link,messages,bytes,max_inflight,mean_delivered_staleness\n")
    acc = mlr_mod.accuracy(A, U, y)
    _write_summary(paths["summary"], [
        "algorithm: mlr (minibatch SGD with factored gradients)",
        f"classes: {K}  steps: {steps}  batch: {batch}  codec: {codec.value}",
        f"final objective: {objectives[-1]:.10e}",
        f"training accuracy: {acc:.4f}",
        f"bytes sent ({codec.value} codec): {bytes_sent}",
    ])
    return paths


# ---------------------------------------------------------------------------
# report


def ticks_to_tolerance(rows: list[dict], tolerance: float):
    for row in rows:
        if row["objective"] <= tolerance:
            return row["tick"]
    return None


def read_metrics(path: str) -> list[dict]:
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines or lines[0] != METRICS_HEADER:
        raise ConfigurationError(
            f"{path}: header mismatch (expected {METRICS_HEADER!r})"
        )
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append({
            "iteration": int(parts[0]),
            "tick": int(parts[1]),
            "objective": float(parts[2]),
        })
    return rows


def build_report(paths: list[str], tolerance: float | None) -> str:
    series = {p: read_metrics(p) for p in paths}
    out = []
    names = [os.path.basename(p) for p in paths]
    out.append("objective vs iteration")
    out.append("iteration," + ",".join(names))
    longest = max(len(r) for r in series.values())
    for i in range(longest):
        vals = []
        for p in paths:
            rows = series[p]
            vals.append(f"{rows[i]['objective']:.6e}" if i < len(rows) else "")
        out.append(f"{i + 1}," + ",".join(vals))
    out.append("")
    out.append("objective vs tick")
    out.append("file,final_tick,final_objective")
    for p in paths:
        rows = series[p]
        out.append(
            f"{os.path.basename(p)},{rows[-1]['tick']},{rows[-1]['objective']:.6e}"
        )
    if tolerance is not None:
        out.append("")
        out.append(f"ticks to objective <= {tolerance:g}")
        ttt = {}
        for p in paths:
            t = ticks_to_tolerance(series[p], tolerance)
            ttt[p] = t
            out.append(
                f"{os.path.basename(p)}: "
                + (str(t) if t is not None else "not reached")
            )
        if len(paths) == 2 and all(ttt[p] is not None for p in paths):
            a, b = paths
            ratio = ttt[a] / ttt[b] if ttt[b] else math.inf
            out.append(
                f"ratio ticks_to_tol({names[0]})/ticks_to_tol({names[1]}) = "
                f"{ratio:.3f}"
            )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="icflow", description="iterative-convergent runtime harness"
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default=".")
    ap.add_argument("--quiet", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("kind", choices=("lasso", "lda", "mlr"))
    g.add_argument("--n", type=int, default=200)
    g.add_argument("--m", type=int, default=50)
    g.add_argument("--k-true", type=int, default=10)
    g.add_argument("--n-docs", type=int, default=100)
    g.add_argument("--vocab", type=int, default=50)
    g.add_argument("--topics", type=int, default=5)
    g.add_argument("--doc-len", type=int, default=20)
    g.add_argument("--zipf", type=float, default=1.0)
    g.add_argument("--classes", type=int, default=5)
    g.add_argument("--dims", type=int, default=20)

    r = sub.add_parser("run", help="run an experiment from an INI config")
    r.add_argument("config")

    rp = sub.add_parser("replay", help="re-check a recorded trace")
    rp.add_argument("trace")
    rp.add_argument("--staleness", type=int, required=True)
    rp.add_argument("--workers", type=int, required=True)

    rep = sub.add_parser("report", help="compare metrics files")
    rep.add_argument("metrics", nargs="+")
    rep.add_argument("--tolerance", type=float, default=None)
    return ap


def _cmd_gen(args) -> int:
    if args.kind == "lasso":
        ds = datasets.gen_lasso(args.n, args.m, args.k_true, seed=args.seed)
        paths = datasets.write_lasso(ds, args.out_dir)
    elif args.kind == "lda":
        corpus = datasets.gen_lda(
            args.n_docs, args.vocab, args.topics, args.doc_len,
            seed=args.seed, zipf_s=args.zipf,
        )
        paths = datasets.write_corpus(corpus, args.out_dir)
    else:
        ds = datasets.gen_mlr(args.n, args.dims, args.classes, seed=args.seed)
        paths = datasets.write_mlr(ds, args.out_dir)
    if not args.quiet:
        for k, v in paths.items():
            print(f"{k}: {v}")
    return EXIT_OK


def _cmd_replay(args) -> int:
    try:
        with open(args.trace) as f:
            trace = Trace.from_text(f.read())
    except OSError as e:
        print(f"cannot read trace: {e}", file=sys.stderr)
        return EXIT_CONFIG
    report = replay(trace, args.staleness, args.workers)
    if not args.quiet:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.ok else EXIT_INVARIANT


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            cfg = parse_config(args.config)
            run_experiment(cfg, args.out_dir, quiet=args.quiet)
            return EXIT_OK
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "report":
            sys.stdout.write(build_report(args.metrics, args.tolerance))
            return EXIT_OK
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IcflowError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
