"""Command-line entry point.

Subcommands: simulate, train, track, bench, inspect-model. Configuration
comes from JSON files; every resolved setting is printed at startup so
emitted artifacts are self-describing. Exit codes: 0 success, 2 bad usage
or configuration, 3 numerical failure. A failure prints one line to stderr,
``error: <message>``. For a config file the message leads with where the
fault lies, under the file's section ``scenario``, ``bench`` or ``train`` and
its nested sections: a value of the wrong type with its field, as in
``error: bench.ospa.c: expected a number, got '10'``, and a value out of
range with its section, as in ``error: scenario: dt must be > 0, got 0.0``.
A flag's value out of range leads with the flag, as in
``error: --ospa-c: c must be finite and > 0, got 0.0``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .assoc import GateParams
from .bench import METHODS, BenchSpec, emit_report, make_engine, run_grid, track_scans
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
    read_config,
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
    write_csv,
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
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from None


def _make_out_dir(path) -> None:
    """Create the output directory before any work, so a bad --out costs none."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from None


def _checked(flag: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose error, a value out of range, is
    raised again with its type, led by the flag that gave the value."""
    try:
        return make(*args, **kwargs)
    except ToolkitError as e:
        raise type(e)(f"{flag}: {e}") from None


def _announce(name: str, settings: dict) -> None:
    print(f"[{name}] resolved settings:")
    print(json.dumps(settings, indent=2, default=str))


def _cmd_simulate(args) -> int:
    config = ScenarioConfig.from_dict(_load_json(args.config))
    _announce("simulate", {**config.to_dict(), "out": args.out})
    _make_out_dir(args.out)
    truth = generate_truth(config)
    scans = generate_scans(truth, config.seed)
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


@dataclass(frozen=True)
class _TrainFile:
    """A train config: the training scenarios, given as a list or as
    ``variants`` seeded copies of ``base`` (not both), and the network and
    training-loop settings."""

    scenarios: Optional[Tuple[ScenarioConfig, ...]] = None
    base: Optional[ScenarioConfig] = None
    variants: int = 500
    net: NetConfig = NetConfig()
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        if self.scenarios is None and self.base is None:
            raise ConfigError("needs either 'scenarios' or 'base'")


def _cmd_train(args) -> int:
    doc = _load_json(args.config)
    spec = read_config("train", doc, _TrainFile)
    for name in ("base", "variants"):
        if spec.scenarios is not None and name in doc:
            raise ConfigError(f"train.{name}: does not apply when 'scenarios' lists the scenarios")
    if spec.variants < 1:
        raise ConfigError(f"train.variants: must be >= 1, got {spec.variants}")
    configs = seeded_variants(spec.base, spec.variants) if spec.scenarios is None else spec.scenarios
    _make_out_dir(args.out)
    dataset = make_training_set(configs)
    net_cfg = spec.net
    if "m_max" not in doc.get("net", {}):  # the network is sized to the largest scan
        net_cfg = replace(spec.net, m_max=dataset.m_max)
    elif net_cfg.m_max < dataset.m_max:
        row = next(i for i, g in enumerate(dataset.groups) if len(g.measurements) > net_cfg.m_max)
        s, k = [(s, k) for s, c in enumerate(configs) for k in range(1, c.num_scans)][row]
        raise ConfigError(
            f"train.net.m_max: training scenario {s} (seed {configs[s].seed}), scan {k} has "
            f"{len(dataset.groups[row].measurements)} measurements, capacity is m_max={net_cfg.m_max}"
        )
    _announce(
        "train",
        {
            "scenarios": len(configs),
            "scan_sequences": len(dataset),
            "net": net_cfg.__dict__,
            "train": spec.train.__dict__,
            "out": args.out,
        },
    )
    model, curve = train(dataset, net_cfg, spec.train)
    model_path = os.path.join(args.out, "model.json")
    curve_path = os.path.join(args.out, "loss_curve.csv")
    save_model(model, model_path)
    write_csv(curve_path, ["epoch", "mean_loss"], enumerate(curve))
    print(f"final loss: {curve[-1]!r}")
    print(f"final/initial loss ratio: {curve[-1] / curve[0]!r}")
    print(f"wrote {model_path} and {curve_path}")
    return 0


def _covering_region(truth_path, initial_positions: np.ndarray, scans_path, scans) -> Region:
    """The default region grown to cover the initial positions, then every
    measurement in scan order. The point that makes the region's area
    overflow raises :class:`ConfigError` naming its file and row."""
    points = np.concatenate([initial_positions] + [s.measurements for s in scans])
    low = np.minimum.accumulate(np.vstack([[DEFAULT_REGION.xmin, DEFAULT_REGION.ymin], points]))
    high = np.maximum.accumulate(np.vstack([[DEFAULT_REGION.xmax, DEFAULT_REGION.ymax], points]))
    with np.errstate(over="ignore"):
        span = high - low
        finite = np.isfinite(span[:, 0] * span[:, 1])
    if not finite[-1]:
        i = int(np.argmin(finite)) - 1  # row 0 is the default region's corner
        x, y = (float(v) for v in points[i])
        overflow = f"at ({x!r}, {y!r}) makes the area of the region covering the data overflow"
        if i < len(initial_positions):
            raise ConfigError(f"{truth_path}: scan 0, target {i}: initial position {overflow}")
        i -= len(initial_positions)
        for scan in scans:
            if i < scan.num_measurements:
                raise ConfigError(f"{scans_path}: scan {scan.k}: measurement {i} {overflow}")
            i -= scan.num_measurements
    return Region(float(low[-1, 0]), float(high[-1, 0]), float(low[-1, 1]), float(high[-1, 1]))


def _cmd_track(args) -> int:
    csv_input = args.input.endswith(".csv")
    # A scenario config would ignore the flags for scans.csv input: refuse them.
    csv_flags = {"--truth": args.truth, "--dt": args.dt, "--pd": args.pd, "--elambda": args.elambda}
    for flag, value in csv_flags.items():
        if value is not None and not csv_input:
            raise ConfigError(f"{flag} applies to scans.csv input only, not to {args.input}")
    if args.method == "deepda" and not args.model:
        raise ConfigError("method deepda requires --model")
    model = load_model(args.model) if args.model else None
    op = _checked("--ospa-c", OspaParams, c=args.ospa_c, p=1.0)  # c ** 1 cannot overflow
    op = _checked("--ospa-p", replace, op, p=args.ospa_p)

    if csv_input:
        if not args.truth:
            raise ConfigError("tracking a scans.csv needs --truth truth.csv")
        scans = read_scans_csv(args.input)
        truth_states = read_truth_states(args.truth)
        if len(scans) != truth_states.shape[0]:
            raise ConfigError(
                f"{args.input} holds {len(scans)} scans but {args.truth} holds "
                f"{truth_states.shape[0]} truth epochs"
            )
        num_targets = truth_states.shape[1]
        for scan in scans:
            if scan.origins and max(scan.origins) >= num_targets:
                raise ConfigError(
                    f"{args.input}: scan {scan.k}: target id {max(scan.origins)}, "
                    f"but {args.truth} has {num_targets} targets"
                )
        # The filter needs the scan interval and JPDA the scenario's p_d and
        # clutter density, which the CSV files do not record: take p_d, the
        # clutter rate and dt from flags or the reference values, and the
        # region from the default one grown to cover the data.
        params = FilterParams() if args.dt is None else _checked("--dt", FilterParams, dt=args.dt)
        config = ScenarioConfig(
            num_targets=num_targets,
            initial_states=tuple(tuple(s) for s in truth_states[0]),
            dt=params.dt,
            num_scans=truth_states.shape[0],
            p_d=_CSV_DEFAULT_PD,
            e_lambda=_CSV_DEFAULT_ELAMBDA,
            region=_covering_region(args.truth, truth_states[0][:, [0, 2]], args.input, scans),
        )
        if args.pd is not None:
            config = _checked("--pd", replace, config, p_d=args.pd)
        if args.elambda is not None:
            config = _checked("--elambda", replace, config, e_lambda=args.elambda)
        if None in (args.pd, args.elambda, args.dt):
            print(
                f"warning: {args.input} does not record the scenario; assuming p_d "
                f"{config.p_d!r}, e_lambda {config.e_lambda!r}, dt {params.dt!r} and "
                f"{config.region} (set --pd, --elambda and --dt to the simulated values)",
                file=sys.stderr,
            )
    else:
        config = ScenarioConfig.from_dict(_load_json(args.input))
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
            "region": asdict(config.region),
            "filter": params.__dict__,
            "gate_gamma": GateParams().gamma,
        },
    )

    engine = make_engine(args.method, config, params, GateParams(), model)
    _make_out_dir(args.out)
    run = track_scans(
        truth_states[0], scans, truth_states[:, :, [0, 2]], engine, params, op
    )

    tracks_path = os.path.join(args.out, "tracks.csv")
    metrics_path = os.path.join(args.out, "metrics.json")
    rows = ([scan.k, j, *x] for scan, xs in zip(scans[1:], run.states) for j, x in enumerate(xs))
    write_csv(tracks_path, ["k", "track", "x", "vx", "y", "vy"], rows)
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
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
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
            "seed": spec.base.seed,
            "jobs": args.jobs,
            "out": args.out,
        },
    )
    model = load_model(spec.model_path) if "deepda" in spec.methods else None
    _make_out_dir(args.out)
    report = run_grid(spec, jobs=args.jobs, model=model)
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
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "train",
        help="train an association model",
        epilog="Training's matrix products run on OpenBLAS threads, one per core; on 2 cores "
        "shared with another busy process, a run read 14x slower per epoch. To train on one "
        "thread, start the process with OPENBLAS_NUM_THREADS=1 set: OpenBLAS reads it only "
        "when numpy loads, so setting it in a running program has no effect.",
    )
    p.add_argument("config", help="training config JSON")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("track", help="run one tracking episode")
    p.add_argument("input", help="scenario config JSON or scans.csv")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--model", default=None, help="model.json for deepda")
    p.add_argument("--truth", default=None, help="truth.csv (required with scans.csv input)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--dt", type=float, help=f"csv input scan interval (default {FilterParams.dt})")
    p.add_argument(
        "--pd", type=float, default=None,
        help=f"detection probability for csv input (default {_CSV_DEFAULT_PD})",
    )
    p.add_argument(
        "--elambda", type=float, default=None,
        help=f"clutter rate for csv input (default {_CSV_DEFAULT_ELAMBDA})",
    )
    p.add_argument("--ospa-c", type=float, default=OspaParams.c)
    p.add_argument("--ospa-p", type=float, default=OspaParams.p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("bench", help="run a Monte Carlo benchmark grid")
    p.add_argument("config", help="bench spec JSON")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel episode workers")
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
