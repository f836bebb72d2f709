"""Command-line entry point.

Subcommands: simulate, train, track, bench, inspect-model. Configuration
comes from JSON files; every resolved setting is printed at startup so
emitted artifacts are self-describing. Exit codes: 0 success, 2 bad usage
or configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, fields, replace
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .assoc import GateParams
from .bench import BenchSpec, emit_report, make_engine, run_grid, track_scans
from .deepda import (
    MODEL_FORMAT_VERSION,
    NetConfig,
    TrainConfig,
    load_model,
    save_model,
    train,
)
from .domain import (
    CLUTTER,
    DEFAULT_REGION,
    ComplexityError,
    ConfigError,
    NumericalError,
    Region,
    ScenarioConfig,
    ToolkitError,
)
from .kalman import FilterParams
from .metrics import OspaParams
from .scenario import (
    generate_scans,
    generate_truth,
    make_training_set,
    read_scans_csv,
    read_truth_states,
    seeded_variants,
    write_scans_csv,
    write_truth_csv,
)

_USAGE_EXIT = 2
_NUMERICAL_EXIT = 3

#: p_d and clutter rate assumed for scans.csv input without --pd/--elambda.
_CSV_DEFAULT_PD = 0.9
_CSV_DEFAULT_ELAMBDA = 20.0


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from None


def _announce(name: str, settings: dict) -> None:
    print(f"[{name}] resolved settings:")
    print(json.dumps(settings, indent=2, default=str))


def _cmd_simulate(args) -> int:
    config = ScenarioConfig.from_dict(_load_json(args.config))
    seed = args.seed if args.seed is not None else config.seed
    _announce("simulate", {**config.to_dict(), "effective_seed": seed, "out": args.out})
    os.makedirs(args.out, exist_ok=True)
    truth = generate_truth(config)
    scans = generate_scans(truth, seed)
    truth_path = os.path.join(args.out, "truth.csv")
    scans_path = os.path.join(args.out, "scans.csv")
    write_truth_csv(truth, truth_path)
    write_scans_csv(scans, scans_path)
    clutter_counts = [sum(1 for o in s.origins if o == CLUTTER) for s in scans]
    print(f"targets: {config.num_targets}")
    print(f"scans: {config.num_scans}")
    print(f"mean clutter per scan: {float(np.mean(clutter_counts)):.3f}")
    print(f"wrote {truth_path} and {scans_path}")
    return 0


def _parse_train_config(doc: dict):
    unknown = set(doc) - {"scenarios", "base", "variants", "net", "train"}
    if unknown:
        raise ConfigError(f"unknown train config fields: {sorted(unknown)}")
    if "scenarios" in doc:
        configs = [ScenarioConfig.from_dict(d) for d in doc["scenarios"]]
    elif "base" in doc:
        base = ScenarioConfig.from_dict(doc["base"])
        configs = seeded_variants(base, int(doc.get("variants", 500)))
    else:
        raise ConfigError("train config needs either 'scenarios' or 'base'")

    net_doc = dict(doc.get("net", {}))
    unknown = set(net_doc) - {f.name for f in fields(NetConfig)}
    if unknown:
        raise ConfigError(f"net: unknown fields {sorted(unknown)}")
    m_max = net_doc.pop("m_max", None)

    train_doc = dict(doc.get("train", {}))
    unknown = set(train_doc) - {f.name for f in fields(TrainConfig)}
    if unknown:
        raise ConfigError(f"train: unknown fields {sorted(unknown)}")
    return configs, net_doc, m_max, TrainConfig(**train_doc)


def _cmd_train(args) -> int:
    configs, net_doc, m_max, train_cfg = _parse_train_config(_load_json(args.config))
    dataset = make_training_set(configs, m_max=m_max)
    net_cfg = NetConfig(m_max=dataset.m_max if m_max is None else m_max, **net_doc)
    _announce(
        "train",
        {
            "scenarios": len(configs),
            "scan_sequences": len(dataset),
            "net": net_cfg.__dict__,
            "train": train_cfg.__dict__,
            "out": args.out,
        },
    )
    model, curve = train(dataset, net_cfg, train_cfg)
    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.json")
    curve_path = os.path.join(args.out, "loss_curve.csv")
    save_model(model, model_path)
    with open(curve_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, value in enumerate(curve):
            writer.writerow([epoch, repr(value)])
    print(f"final loss: {curve[-1]!r}")
    print(f"final/initial loss ratio: {curve[-1] / curve[0]!r}")
    print(f"wrote {model_path} and {curve_path}")
    return 0


def _cmd_track(args) -> int:
    if args.method == "deepda" and not args.model:
        raise ConfigError("method deepda requires --model")
    model = load_model(args.model) if args.model else None
    op = OspaParams(c=args.ospa_c, p=args.ospa_p)

    if args.input.endswith(".csv"):
        if not args.truth:
            raise ConfigError("tracking a scans.csv needs --truth truth.csv")
        scans = read_scans_csv(args.input)
        truth_states = read_truth_states(args.truth)
        if len(scans) != truth_states.shape[0]:
            raise ConfigError(
                f"{len(scans)} scans but {truth_states.shape[0]} truth epochs"
            )
        # The filter needs the scan interval and JPDA the scenario's p_d and
        # clutter density, which the CSV files do not record: take p_d, the
        # clutter rate and dt from flags or the reference values, and the
        # region from the default one grown to cover the data.
        params = FilterParams() if args.dt is None else FilterParams(dt=args.dt)
        points = np.concatenate([truth_states[0][:, [0, 2]]] + [s.measurements for s in scans])
        low = np.minimum(points.min(axis=0), [DEFAULT_REGION.xmin, DEFAULT_REGION.ymin])
        high = np.maximum(points.max(axis=0), [DEFAULT_REGION.xmax, DEFAULT_REGION.ymax])
        config = ScenarioConfig(
            num_targets=truth_states.shape[1],
            initial_states=tuple(tuple(s) for s in truth_states[0]),
            dt=params.dt,
            num_scans=truth_states.shape[0],
            p_d=_CSV_DEFAULT_PD if args.pd is None else args.pd,
            e_lambda=_CSV_DEFAULT_ELAMBDA if args.elambda is None else args.elambda,
            region=Region(float(low[0]), float(high[0]), float(low[1]), float(high[1])),
        )
        if None in (args.pd, args.elambda, args.dt):
            print(
                f"warning: {args.input} does not record the scenario; assuming p_d "
                f"{config.p_d!r}, e_lambda {config.e_lambda!r}, dt {params.dt!r} and "
                f"{config.region} (set --pd, --elambda and --dt to the simulated values)",
                file=sys.stderr,
            )
    else:
        config = ScenarioConfig.from_dict(_load_json(args.input))
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        truth = generate_truth(config)
        truth_states = truth.states
        scans = generate_scans(truth, config.seed)
        params = FilterParams(dt=config.dt)

    _announce(
        "track",
        {
            "input": args.input,
            "method": args.method,
            "model": args.model,
            "ospa": asdict(op),
            "p_d": config.p_d,
            "e_lambda": config.e_lambda,
            "region": config.region.to_dict(),
            "filter": params.__dict__,
            "gate_gamma": GateParams().gamma,
        },
    )

    engine = make_engine(args.method, config, params, GateParams(), model)
    run = track_scans(
        truth_states[0], scans, truth_states[:, :, [0, 2]], engine, params, op
    )

    os.makedirs(args.out, exist_ok=True)
    tracks_path = os.path.join(args.out, "tracks.csv")
    metrics_path = os.path.join(args.out, "metrics.json")
    with open(tracks_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "track", "x", "vx", "y", "vy"])
        for idx, scan in enumerate(scans[1:]):
            for j, state in enumerate(run.states[idx]):
                writer.writerow([scan.k, j] + [repr(float(v)) for v in state])
    metrics = {
        "ospa_mean": run.result.ospa_mean,
        "stti": run.result.stti,
        "time_mean_s": run.result.time_mean_s,
    }
    with open(metrics_path, "w") as fh:
        json.dump(metrics, fh, indent=2)
    print(json.dumps(metrics))
    print(f"wrote {tracks_path} and {metrics_path}")
    return 0


def _cmd_bench(args) -> int:
    spec = BenchSpec.from_dict(_load_json(args.config))
    _announce(
        "bench",
        {
            "grid": {
                "pd_values": list(spec.pd_values),
                "elambda_values": list(spec.elambda_values),
                "methods": list(spec.methods),
                "n_runs": spec.n_runs,
            },
            "ospa": asdict(spec.ospa),
            "seed": spec.seed,
            "jobs": args.jobs,
            "out": args.out,
        },
    )
    os.makedirs(args.out, exist_ok=True)
    report = run_grid(spec, jobs=args.jobs, raw_log=args.raw_log)
    paths = emit_report(report, args.out)
    print(f"{'method':>8} {'p_d':>6} {'e_lambda':>9} {'ospa':>8} {'stti':>7} {'time_s':>9}")
    for row in report.rows:
        print(
            f"{row.method:>8} {row.p_d:>6.2f} {row.e_lambda:>9.1f} "
            f"{row.ospa_mean:>8.3f} {row.stti_mean:>7.3f} {row.time_mean_s:>9.5f}"
        )
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def _cmd_inspect_model(args) -> int:
    model = load_model(args.model)
    total = sum(int(np.prod(a.shape)) for a in model.params().values())
    print(f"model format version: {MODEL_FORMAT_VERSION}")
    print(f"net config: {model.cfg}")
    print(f"parameters: {total}")
    for name, arr in model.params().items():
        print(f"  {name}: shape {arr.shape}, |.|_max {float(np.abs(arr).max()):.4f}")
    print(
        f"norm stats: min range [{model.norm.min.min():.3f}, {model.norm.min.max():.3f}], "
        f"max range [{model.norm.max.min():.3f}, {model.norm.max.max():.3f}]"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cluttertrack",
        description="Multi-target tracking in clutter: simulate, train, track, benchmark.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"cluttertrack {__version__} (model format {MODEL_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate truth.csv and scans.csv from a scenario config")
    p.add_argument("config", help="scenario config JSON")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train an association model")
    p.add_argument("config", help="training config JSON")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("track", help="run one tracking episode")
    p.add_argument("input", help="scenario config JSON or scans.csv")
    p.add_argument("--method", choices=["ha", "jpda", "deepda"], required=True)
    p.add_argument("--model", default=None, help="model.json for deepda")
    p.add_argument("--truth", default=None, help="truth.csv (required with scans.csv input)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--dt", type=float, help=f"csv input scan interval (default {FilterParams.dt})")
    p.add_argument(
        "--pd", type=float, default=None,
        help=f"detection probability for csv input (default {_CSV_DEFAULT_PD})",
    )
    p.add_argument(
        "--elambda", type=float, default=None,
        help=f"clutter rate for csv input (default {_CSV_DEFAULT_ELAMBDA})",
    )
    p.add_argument("--ospa-c", type=float, default=10.0)
    p.add_argument("--ospa-p", type=float, default=2.0)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("bench", help="run a Monte Carlo benchmark grid")
    p.add_argument("config", help="bench spec JSON")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel episode workers")
    p.add_argument("--raw-log", default=None, help="persist per-episode rows to this CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("inspect-model", help="describe a model file")
    p.add_argument("model", help="model.json")
    p.set_defaults(func=_cmd_inspect_model)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, ComplexityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _NUMERICAL_EXIT
    except ToolkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
