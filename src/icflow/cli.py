"""Command-line front end: dataset generation, experiment runs from INI
configs, trace replay, and metrics reporting.

Exit codes: 0 success, 2 configuration error (also bad `replay` arguments, an
unreadable or malformed trace or metrics file, a global option that the
command does not read, and an output path that cannot be created or
written), 3 runtime invariant violation.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

from . import datasets
from .algorithms.lasso import LassoProblem
from .algorithms import lda as lda_mod
from .algorithms import mlr as mlr_mod
from .engine import FixedBlockScheduler
from .errors import ConfigurationError, IcflowError, TraceParseError
from .fabric import Codec, full_codec_size, sf_codec_size, traffic_report
from .sap import RandomScheduler, RoundRobinScheduler, SapScheduler
from .simcluster import (
    METRICS_HEADER,
    SimCluster,
    SimConfig,
    LassoModelParallelWorkload,
    StragglerWindow,
)
from .ssp import Trace, replay

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

# ---------------------------------------------------------------------------
# config schema: key -> (parser, default). A parser takes (section, key, raw
# text) and returns the typed value or raises ConfigurationError.


def _invalid(section: str, key: str, raw: str, why: str) -> ConfigurationError:
    return ConfigurationError(f"[{section}] {key} = {raw!r} {why}")


def _int(minimum: int):
    def parse(section: str, key: str, raw: str) -> int:
        try:
            v = int(raw)
        except ValueError:
            raise _invalid(section, key, raw, "is not an integer") from None
        if v < minimum:
            raise _invalid(section, key, raw, f"must be >= {minimum}")
        return v
    return parse


def _finite(section: str, key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise _invalid(section, key, raw, "is not a number") from None
    if not math.isfinite(v):
        raise _invalid(section, key, raw, "must be finite")
    return v


def _positive(section: str, key: str, raw: str) -> float:
    v = _finite(section, key, raw)
    if v <= 0:
        raise _invalid(section, key, raw, "must be a finite number > 0")
    return v


def _choice(*options: str):
    def parse(section: str, key: str, raw: str) -> str:
        if raw not in options:
            expected = ", ".join(options)
            raise _invalid(section, key, raw, f"is invalid; expected one of {expected}")
        return raw
    return parse


def _flag(section: str, key: str, raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    return states[_choice(*states)(section, key, raw.lower())]


def _text(section: str, key: str, raw: str) -> str:
    return raw


def _file(section: str, key: str, raw: str) -> str:
    if not os.path.isfile(raw):
        raise _invalid(section, key, raw, "is not a file")
    return raw


_RUNTIME = {
    "p": (_int(1), 4),
    "staleness": (_int(0), 0),
    "seed": (_int(0), 0),
    "max_clocks": (_int(1), 30),
    "topology": (_choice("master_slave", "full_p2p", "halton"), "master_slave"),
    "codec": (_choice(*(c.value for c in Codec)), Codec.SUFFICIENT_FACTOR.value),
    "scheduler": (_choice("fixed", "sap", "random", "round_robin"), "fixed"),
    "bandwidth": (_positive, 4096.0),
    "latency": (_int(0), 1),
    "straggler": (_text, ""),  # then parse_straggler, which needs p
    "slow_worker_extras": (_flag, False),
}
_SEED = (_int(0), 0)
# per algorithm: the [data] files, read together; the [data] generator keys
# used when no file is named; the [algorithm] keys; the [runtime] keys its run
# reads, any other being unknown
_ALGORITHMS = {
    "lasso": (
        ("x", "y"),
        {"n": (_int(1), 200), "m": (_int(1), 50), "k_true": (_int(0), 10),
         "seed": _SEED},
        {"lam": (_positive, None)},  # None: LassoProblem's default rule
        tuple(key for key in _RUNTIME if key != "codec"),
    ),
    "lda": (
        ("docs",),
        {"n_docs": (_int(1), 100), "v": (_int(1), 50), "k": (_int(1), 5),
         "doc_len": (_int(1), 20), "seed": _SEED},
        {"topics": (_int(1), 5), "epochs": (_int(1), 10)},
        ("p", "seed"),
    ),
    "mlr": (
        ("u", "y"),
        {"n": (_int(1), 500), "d": (_int(1), 20), "k": (_int(2), 5),
         "seed": _SEED},
        {"steps": (_int(1), 50), "batch": (_int(1), 32), "eta0": (_positive, 0.1)},
        ("p", "seed", "codec"),
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked run config: every value typed, every default filled in.
    `data` holds the file paths when files are named, else the generator
    keys."""

    algorithm: str
    data: dict
    params: dict
    runtime: dict


def _fill(name: str, raw: dict, schema: dict) -> dict:
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigurationError(
            f"[{name}] unknown key {', '.join(unknown)}; expected one of "
            f"{', '.join(schema)}"
        )
    return {
        key: parse(name, key, raw[key]) if key in raw else default
        for key, (parse, default) in schema.items()
    }


def parse_config(path: str) -> ExperimentConfig:
    """Read an INI config and check every value; nothing is read or
    generated before the whole config has passed. Values are read as
    written: no `%` interpolation, and no `[DEFAULT]` keys."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as e:
        raise ConfigurationError(f"cannot parse {path}: {e}") from None
    sections = ("data", "algorithm", "runtime")
    unknown = [name for name in parser.sections() if name not in sections]
    if parser.defaults():  # [DEFAULT] keys would reach every section
        unknown.insert(0, parser.default_section)
    if unknown:
        raise ConfigurationError(
            f"unknown section [{unknown[0]}]; expected [data], [algorithm] or [runtime]"
        )
    data, params, runtime = (
        dict(parser.items(name)) if parser.has_section(name) else {}
        for name in sections
    )
    if "algorithm" not in params:
        raise ConfigurationError("[algorithm] missing required key algorithm")
    algo = _choice(*_ALGORITHMS)("algorithm", "algorithm", params.pop("algorithm"))
    files, generator, algo_keys, runtime_keys = _ALGORITHMS[algo]
    named = [key for key in files if key in data]
    missing = [key for key in files if key not in data]
    if named and missing:
        raise ConfigurationError(
            f"[data] missing required key {missing[0]}; {named[0]} needs it"
        )
    if named:
        mixed = sorted(set(data) & set(generator))
        if mixed:
            raise ConfigurationError(
                f"[data] {', '.join(mixed)} cannot be given with "
                f"{', '.join(files)}; the data is read from the files"
            )
        data = _fill("data", data, dict.fromkeys(files, (_file, None)))
    else:
        data = _fill("data", data, generator)
    runtime = _fill("runtime", runtime, {key: _RUNTIME[key] for key in runtime_keys})
    if "straggler" in runtime:
        runtime["straggler"] = parse_straggler(runtime["straggler"], runtime["p"])
    return ExperimentConfig(algo, data, _fill("algorithm", params, algo_keys), runtime)


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
        fields = [float(x) for x in parts[1:]]
    except ValueError:
        raise ConfigurationError(
            f"[runtime] straggler = {raw!r} has non-numeric fields"
        ) from None
    if not all(map(math.isfinite, fields)):
        raise ConfigurationError(
            f"[runtime] straggler = {raw!r} has non-finite fields"
        )
    factor, start, duration = (fields + [0.0, math.inf])[:3]
    if not (0 <= worker < P):
        raise ConfigurationError(
            f"[runtime] straggler worker {worker} out of range for p = {P}"
        )
    return StragglerWindow(worker, factor, start, duration)


# ---------------------------------------------------------------------------
# experiment execution; each run returns (metrics text, trace, traffic
# stats, summary lines) and run_experiment writes them


def _make_scheduler(kind: str, problem: LassoProblem, P: int, seed: int):
    if kind == "fixed":
        return FixedBlockScheduler(problem.m, P)
    if kind == "sap":
        return SapScheduler(problem.X, P, seed=seed, gram=problem.gram)
    if kind == "random":
        return RandomScheduler(problem.m, P, seed=seed)
    return RoundRobinScheduler(problem.m, P)


def run_experiment(cfg: ExperimentConfig, out_dir: str, quiet: bool = False) -> None:
    """Create `out_dir` before any data is read, run `cfg` and write
    metrics.csv, trace.txt, traffic.csv and summary.txt into it."""
    os.makedirs(out_dir, exist_ok=True)
    run = {"lasso": _run_lasso, "lda": _run_lda, "mlr": _run_mlr}[cfg.algorithm]
    metrics, trace, traffic, summary = run(cfg)
    summary = "\n".join(summary) + "\n"
    with open(os.path.join(out_dir, "trace.txt"), "w") as f:
        trace.to_text(f)
    for name, text in (
        ("metrics.csv", metrics),
        ("traffic.csv", traffic_report(traffic)),
        ("summary.txt", summary),
    ):
        with open(os.path.join(out_dir, name), "w") as f:
            f.write(text)
    if not quiet:
        sys.stdout.write(summary)


def _lasso_data(data: dict):
    """Raw (X, y); kept out of `_run_lasso` so X is freed before the run."""
    if "x" in data:
        return datasets.read_lasso(data["x"], data["y"])
    ds = datasets.gen_lasso(data["n"], data["m"], data["k_true"], seed=data["seed"])
    return ds.X, ds.y


def _run_lasso(cfg: ExperimentConfig):
    rt = cfg.runtime
    P = rt["p"]
    sim_config = SimConfig(
        P=P,
        staleness=rt["staleness"],
        topology=rt["topology"],
        bandwidth=rt["bandwidth"],
        latency=rt["latency"],
        max_clocks=rt["max_clocks"],
        seed=rt["seed"],
        slow_worker_extras=rt["slow_worker_extras"],
        stragglers=(rt["straggler"],) if rt["straggler"] else (),
    )
    problem = LassoProblem.from_raw(*_lasso_data(cfg.data), lam=cfg.params["lam"])
    scheduler = _make_scheduler(rt["scheduler"], problem, P, rt["seed"])
    workload = LassoModelParallelWorkload(problem, P, scheduler)
    result = SimCluster(workload, sim_config).run()
    final_obj = workload.objective(result.values)
    total = result.final_tick * P or 1
    return result.metrics_text(), result.trace, result.traffic, [
        "algorithm: lasso (block coordinate descent)",
        f"workers: {P}  staleness: {rt['staleness']}  "
        f"topology: {rt['topology']}  scheduler: {rt['scheduler']}",
        f"iterations: {len(result.metrics)}  final tick: {result.final_tick}",
        f"final objective: {final_obj:.10e}",
        f"blocked ticks: {sum(result.blocked_ticks)} "
        f"({sum(result.blocked_ticks) / total:.1%} of worker-ticks)",
        f"extra passes while waiting: {result.extra_passes}",
        f"bytes sent: {sum(s.bytes for s in result.traffic.values())}",
        f"update staleness: mean {result.stale_mean:.3f}, max {result.stale_max}",
    ]


def _run_lda(cfg: ExperimentConfig):
    rt, data, params = cfg.runtime, cfg.data, cfg.params
    if "docs" in data:
        docs, V = datasets.read_corpus(data["docs"])
    else:
        V = data["v"]
        docs = datasets.gen_lda(
            data["n_docs"], V, data["k"], data["doc_len"], seed=data["seed"]
        ).docs
    result = lda_mod.run_rotation(
        docs, V, params["topics"], rt["p"], params["epochs"], seed=rt["seed"]
    )
    rows = [METRICS_HEADER] + [
        f"{i + 1},{(i + 1) * rt['p']},{ll:.12e},0.000000,0,0,0"
        for i, ll in enumerate(result.log_likelihoods)
    ]
    return "\n".join(rows) + "\n", Trace(), {}, [
        "algorithm: lda (rotation-scheduled collapsed Gibbs)",
        f"workers: {rt['p']}  topics: {params['topics']}  epochs: {params['epochs']}",
        f"documents: {len(docs)}  vocabulary: {V}",
        f"final log-likelihood: {result.log_likelihoods[-1]:.6e}",
    ]


def _run_mlr(cfg: ExperimentConfig):
    rt, data, params = cfg.runtime, cfg.data, cfg.params
    if "u" in data:
        U, y = datasets.read_mlr(data["u"], data["y"])
        K = int(y.max()) + 1
    else:
        K = data["k"]
        ds = datasets.gen_mlr(data["n"], data["d"], K, seed=data["seed"])
        U, y = ds.U, ds.y
    problem = mlr_mod.MlrProblem(U=U, y=y, K=K)
    steps, batch, codec = params["steps"], params["batch"], rt["codec"]
    A, objectives = mlr_mod.train_sgd(
        problem, steps, batch, eta0=params["eta0"], seed=rt["seed"]
    )
    # every step broadcasts its update to the P-1 peers; a sufficient-factor
    # update carries one factor pair per minibatch row
    if codec == Codec.FULL.value:
        size = full_codec_size(K, problem.D)
    else:
        size = sf_codec_size(K, problem.D, min(batch, problem.n))
    step_bytes = size * (rt["p"] - 1)
    rows = [METRICS_HEADER] + [
        f"{t},{t},{obj:.12e},0.000000,0,0,{t * step_bytes}"
        for t, obj in enumerate(objectives, 1)
    ]
    return "\n".join(rows) + "\n", Trace(), {}, [
        "algorithm: mlr (minibatch SGD with factored gradients)",
        f"classes: {K}  steps: {steps}  batch: {batch}  codec: {codec}",
        f"final objective: {objectives[-1]:.10e}",
        f"training accuracy: {mlr_mod.accuracy(A, U, y):.4f}",
        f"bytes sent ({codec} codec): {steps * step_bytes}",
    ]


# ---------------------------------------------------------------------------
# report


def ticks_to_tolerance(rows: list[dict], tolerance: float):
    for row in rows:
        if row["objective"] <= tolerance:
            return row["tick"]
    return None


def read_metrics(path: str) -> list[dict]:
    try:
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigurationError(f"cannot read metrics: {e}") from None
    if not lines or lines[0] != METRICS_HEADER:
        raise ConfigurationError(
            f"{path}: header mismatch (expected {METRICS_HEADER!r})"
        )
    if len(lines) == 1:
        raise ConfigurationError(f"{path}: no rows after the header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        try:
            rows.append({"iteration": int(parts[0]), "tick": int(parts[1]),
                         "objective": float(parts[2])})
        except (ValueError, IndexError):
            raise ConfigurationError(f"{path}: malformed row {ln!r}") from None
    return rows


def _labels(paths: list[str]) -> list[str]:
    """Each path's shortest trailing part that no other path ends with:
    `a/metrics.csv` and `b/metrics.csv`, or the basename of a lone path."""
    parts = [os.path.normpath(p).split(os.sep) for p in paths]
    labels = []
    for i, own in enumerate(parts):
        others = parts[:i] + parts[i + 1:]
        n = next((n for n in range(1, len(own)) if all(q[-n:] != own[-n:] for q in others)),
                 len(own))
        labels.append("/".join(own[-n:]))
    return labels


def build_report(paths: list[str], tolerance: float | None) -> str:
    series = {p: read_metrics(p) for p in paths}
    out = []
    names = _labels(paths)
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
    for p, name in zip(paths, names):
        rows = series[p]
        out.append(f"{name},{rows[-1]['tick']},{rows[-1]['objective']:.6e}")
    if tolerance is not None:
        out.append("")
        out.append(f"ticks to objective <= {tolerance:g}")
        ttt = {}
        for p, name in zip(paths, names):
            t = ticks_to_tolerance(series[p], tolerance)
            ttt[p] = t
            out.append(f"{name}: " + (str(t) if t is not None else "not reached"))
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

# per kind: `icflow gen` option -> (parser, default) of the [data] generator
# key it feeds, in the generator's parameter order. `seed` is the global
# --seed; --zipf alone has no [data] key (an LDA config takes gen_lda's 1.0).
_GEN_OPTIONS = {
    kind: {option: {**_ALGORITHMS[kind][1], "zipf": (_finite, 1.0)}[key]
           for option, key in options.items()}
    for kind, options in {
        "lasso": {"n": "n", "m": "m", "k_true": "k_true", "seed": "seed"},
        "lda": {"n_docs": "n_docs", "vocab": "v", "topics": "k", "doc_len": "doc_len",
                "seed": "seed", "zipf": "zipf"},
        "mlr": {"n": "n", "dims": "d", "classes": "k", "seed": "seed"},
    }.items()
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="icflow", description="iterative-convergent runtime harness"
    )
    # None when not given; main rejects them for a command that does not read them
    ap.add_argument("--seed", help=f"for gen (default {_SEED[1]})")
    ap.add_argument("--out-dir", help="for gen and run (default .)")
    ap.add_argument("--quiet", action="store_true", default=None,
                    help="for gen, run and replay")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    kinds = g.add_subparsers(dest="kind", required=True)
    for kind, options in _GEN_OPTIONS.items():
        k = kinds.add_parser(kind, allow_abbrev=False)
        for option, (_, default) in options.items():
            if option != "seed":
                k.add_argument("--" + option.replace("_", "-"),
                               help=f"default {default}")

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
    values = [
        default if getattr(args, option) is None
        else parse("gen", "--" + option.replace("_", "-"), getattr(args, option))
        for option, (parse, default) in _GEN_OPTIONS[args.kind].items()
    ]
    generate, write = {"lasso": (datasets.gen_lasso, datasets.write_lasso),
                       "lda": (datasets.gen_lda, datasets.write_corpus),
                       "mlr": (datasets.gen_mlr, datasets.write_mlr)}[args.kind]
    paths = write(generate(*values), args.out_dir)
    if not args.quiet:
        for k, v in paths.items():
            print(f"{k}: {v}")
    return EXIT_OK


def _cmd_replay(args) -> int:
    # the same minimums as [runtime] p and staleness
    if args.workers < 1:
        raise ConfigurationError(f"--workers = {args.workers} must be >= 1")
    if args.staleness < 0:
        raise ConfigurationError(f"--staleness = {args.staleness} must be >= 0")
    try:
        with open(args.trace) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read trace: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        trace = Trace.from_text(text)
    except TraceParseError as e:
        print(f"cannot parse trace: {e}", file=sys.stderr)
        return EXIT_CONFIG
    report = replay(trace, args.staleness, args.workers)
    if not args.quiet:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.ok else EXIT_INVARIANT


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, commands in (("seed", ("gen",)), ("out_dir", ("gen", "run")),
                               ("quiet", ("gen", "run", "replay"))):
            if getattr(args, name) is not None and args.command not in commands:
                raise ConfigurationError(f"--{name.replace('_', '-')} is read only "
                                         f"by {', '.join(commands)}")
        if args.out_dir is None:
            args.out_dir = "."
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            cfg = parse_config(args.config)
            run_experiment(cfg, args.out_dir, quiet=args.quiet)
            return EXIT_OK
        if args.command == "replay":
            return _cmd_replay(args)
        sys.stdout.write(build_report(args.metrics, args.tolerance))  # report
        return EXIT_OK
    # MemoryError: an input too large to allocate; OSError: a path that cannot
    # be opened, created or written, such as an output directory under a file
    except (ConfigurationError, MemoryError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IcflowError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
