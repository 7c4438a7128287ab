"""Command-line frontend.

Subcommands: sweep, visibility, certify, budget, dicke, dump-snapshots. Outputs
are deterministic (12-significant-digit scientific CSV, or the JSON mirror with
config hash and version); the CLI never computes anything itself, it formats
library results. Exit codes: 0 success, 1 validation or usage error, 2 numerical
or certification failure.
"""
from __future__ import annotations

import argparse
import gc
import math
import re
import sys

import numpy as np

from . import __version__
from .budget import budget_report
from .decoherence import (
    DEFAULT_RESPONSE_IM,
    DEFAULT_RESPONSE_MOD_SQ,
    MAX_SEPARATIONS,
    QuadratureError,
    surface_to_csv,
    surface_to_json,
    visibility_surface,
)
from .dicke import collective_final_state, sector_phase_quadratic_coefficient, sector_table
from .dynamics import (
    PulseSequence,
    branch_overlap,
    evolve_sequence,
    gravitational_phase,
    initial_state,
    max_separation,
    ramsey_probability,
)
from .grid import (CERTIFY_DESK, CLOSURE_MIN, ClosureError, GridBoundaryError, ScaleError,
                   desk_scale_params, oracle_compare, snapshot_frames)
from .io import config_sha256, csv_text, fmt, fmt_cells, json_document, json_table
from .params import (
    PARAM_KEYS,
    ConfigError,
    all_of,
    any_of,
    atan2,
    build_params,
    modulus,
    number,
    parse_config_text,
)

# the import graph lives until exit; frozen, it is walked by no collection, not even shutdown's
gc.freeze()

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

SWEEPABLE = (*PARAM_KEYS, "t1", "t2")

OUTPUT_COLUMNS = ("phi_g_rad", "p0", "delta_x_max_m", "visibility")


def _sequence_from_config(cfg: dict) -> PulseSequence:
    t3 = number(cfg["t3"])
    t1 = number(cfg.get("t1", t3 / 4.0))
    t2 = number(cfg.get("t2", 3.0 * t3 / 4.0))
    jitter = (float(cfg.get("jitter_t1", 0.0)),
              float(cfg.get("jitter_t2", 0.0)),
              float(cfg.get("jitter_t3", 0.0)))
    try:
        return PulseSequence(t1=t1, t2=t2, t3=t3, jitter=jitter)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cfg = parse_config_text(text)
    params = build_params(cfg)
    seq = _sequence_from_config(cfg)
    return params, seq, cfg, text


def _metadata(command: str, cfg_text: str, seed) -> dict:
    return {
        "command": command,
        "config_sha256": config_sha256(cfg_text),
        "version": __version__,
        "seed": seed,
    }


def _write(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _point_outputs(params, seq) -> dict:
    """Output columns of points that are all balanced, or all not."""
    if all_of(seq.is_balanced()):
        phi = gravitational_phase(params, seq)
        vis = 1.0
    else:
        ov = branch_overlap(params, evolve_sequence(params, seq, initial_state(params)))
        phi = -atan2(ov.imag, ov.real)
        vis = modulus(ov)
    return {
        "phi_g_rad": phi,
        "p0": ramsey_probability(phi),
        "delta_x_max_m": max_separation(params, seq),
        "visibility": vis,
    }


def _sweep_values(args):
    if args.values:
        vals = [float(v) for v in args.values.split(",") if v.strip()]
        if not vals:
            raise ConfigError("empty --values list")
        return vals
    if args.start is None or args.stop is None:
        raise ConfigError("pass --values or all of --start/--stop/--count")
    if args.count < 2:
        raise ConfigError("--count must be >= 2 for a range sweep")
    if args.log:
        if args.start <= 0 or args.stop <= 0:
            raise ConfigError("log spacing needs positive endpoints")
        return np.geomspace(args.start, args.stop, args.count)
    return np.linspace(args.start, args.stop, args.count)


def _apply_sweep_value(cfg: dict, name: str, value: float) -> dict:
    out = dict(cfg)
    if name == "t3":
        # preserve the sequence shape: t1/t3 and t2/t3 ratios stay fixed
        old_t3 = float(cfg["t3"])
        for key in ("t1", "t2"):
            if key in out:
                out[key] = float(out[key]) * value / old_t3
    out[name] = value
    return out


def _sweep_outputs(cfg: dict, name: str, values) -> dict:
    """Output columns at the swept ``values``: an array, or one value.

    The config carries the whole array, so each library call covers every
    point. Balanced points take the closed form and the others the branch
    overlap, each route one call over its own points.
    """
    cfg_v = _apply_sweep_value(cfg, name, values)
    params = build_params(cfg_v)
    seq = _sequence_from_config(cfg_v)
    balanced = seq.is_balanced()
    if all_of(balanced) or not any_of(balanced):
        return _point_outputs(params, seq)
    parts = [(mask, _sweep_outputs(cfg, name, values[mask])) for mask in (balanced, ~balanced)]
    out = {}
    for column in OUTPUT_COLUMNS:
        out[column] = np.empty(values.shape)
        for mask, part in parts:
            out[column][mask] = part[column]
    return out


def _sweep_rows(cfg: dict, name: str, values, outputs):
    """The table of the swept ``values`` and their ``outputs``: an
    (n, 1 + len(outputs)) float matrix, or row tuples from the replay."""
    try:
        with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
            points = _sweep_outputs(cfg, name, np.asarray(values, dtype=float))
        return np.column_stack([values, *(np.broadcast_to(points[c], np.shape(values))
                                          for c in outputs)])
    except (ValueError, ArithmeticError):
        # Some point is invalid or hits a float exception (numpy reports x/0,
        # where Python raises). Point by point, the first such point raises,
        # or every point computes, exactly as it does alone.
        points = [_sweep_outputs(cfg, name, v) for v in values]
        return list(zip(values, *([p[c] for p in points] for c in outputs)))


# -- subcommand implementations ------------------------------------------------


def _cmd_sweep(args) -> int:
    _, _, cfg, text = _load_config(args.config)
    if args.param not in SWEEPABLE:
        raise ConfigError(f"--param must be one of {', '.join(SWEEPABLE)}")
    outputs = [c.strip() for c in args.outputs.split(",") if c.strip()]
    bad = [c for c in outputs if c not in OUTPUT_COLUMNS]
    if bad:
        raise ConfigError(f"unknown output column(s): {', '.join(bad)}")
    header = ["param_value", *outputs]
    rows = _sweep_rows(cfg, args.param, _sweep_values(args), outputs)
    meta = _metadata("sweep", text, args.seed)
    meta["swept_parameter"] = args.param
    _write(args, json_table(header, rows, meta) if args.format == "json"
           else csv_text(header, rows))
    return EXIT_OK


def _cmd_visibility(args) -> int:
    params, seq, cfg, text = _load_config(args.config)
    for flag in ("dx_min", "dx_max", "tint_min", "tint_max"):
        value, name = getattr(args, flag), f"--{flag.replace('_', '-')}"
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite")
        if args.dx_log and flag.startswith("dx"):
            if not value > 0.0:
                raise ConfigError(f"{name} must be > 0 under log spacing, got {value!r}")
        elif value < 0.0:
            raise ConfigError(f"{name} must be >= 0, got {value!r}")
    for flag in ("dx_count", "tint_count"):
        value = getattr(args, flag)
        if value < 1:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= 1, got {value!r}")
    if args.dx_count > MAX_SEPARATIONS:
        raise ConfigError(f"--dx-count must be at most {MAX_SEPARATIONS}, where the quadrature's work "
                          f"buffer reaches 128 MiB, got {args.dx_count!r}")
    if args.dx_log:
        dx_axis = np.geomspace(args.dx_min, args.dx_max, args.dx_count)
    else:
        dx_axis = np.linspace(args.dx_min, args.dx_max, args.dx_count)
    tint_axis = np.linspace(args.tint_min, args.tint_max, args.tint_count)
    surface = visibility_surface(
        params, dx_axis, tint_axis, flight_time=seq.effective_times()[2],
        response_im=float(cfg.get("response_im", DEFAULT_RESPONSE_IM)),
        response_mod_sq=float(cfg.get("response_mod_sq", DEFAULT_RESPONSE_MOD_SQ)),
    )
    if args.format == "json":
        _write(args, surface_to_json(surface, _metadata("visibility", text, args.seed)))
    else:
        _write(args, surface_to_csv(surface))
    return EXIT_OK


def _cmd_certify(args) -> int:
    if args.config:
        params, seq, _, _ = _load_config(args.config)
        runs = {"config": (params, seq)}
    else:
        runs = {label: desk_scale_params(*desk_set) for label, desk_set in CERTIFY_DESK.items()}
    all_ok = True
    lines = []
    reports = [oracle_compare(*run) for run in runs.values()]
    for label, report in zip(runs, reports):
        ok = report.passed and report.closure_ok
        all_ok &= ok
        lines.append(f"[{label}] {'PASS' if ok else 'FAIL'}")
        lines.extend("  " + ln for ln in report.lines())
        closure = (f" >= {CLOSURE_MIN}  [{'pass' if report.closure_ok else 'FAIL'}]"
                   if report.balanced else "  (unbalanced flight: closure not required)")
        lines.append(f"  closure  |overlap| {report.overlap_grid:.6f}{closure}")
    lines.append(f"certification: {'PASS' if all_ok else 'FAIL'}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def _cmd_budget(args) -> int:
    params, seq, _, text = _load_config(args.config)
    report = budget_report(params, seq)
    if args.format == "json":
        _write(args, report.to_json(_metadata("budget", text, args.seed)) + "\n")
    else:
        _write(args, report.to_text())
    return EXIT_OK if report.all_pass() else EXIT_NUMERICAL


def _cmd_dicke(args) -> int:
    params, seq, _, text = _load_config(args.config)
    final = collective_final_state(params, seq, args.l)
    header, rows = sector_table(final)
    meta = _metadata("dicke", text, args.seed)
    meta["l"] = args.l
    meta["phase_rad"] = ("linear M * phi_g; the exact sector phase adds "
                         "sector_phase_quadratic_coefficient * M^2")
    meta["sector_phase_quadratic_coefficient"] = sector_phase_quadratic_coefficient(params, seq)
    _write(args, json_table(header, rows, meta) if args.format == "json"
           else csv_text(header, rows))
    return EXIT_OK


def _snapshots_json(frames, metadata: dict) -> str:
    """The frames as a JSON document, every number a fmt string."""
    return json_document({
        "frames": [{"prob_minus": fmt_cells(pm), "prob_plus": fmt_cells(pp), "time_s": fmt(t),
                    "x": fmt_cells(x)} for t, x, pp, pm in frames],
        "metadata": metadata,
    })


def _cmd_dump_snapshots(args) -> int:
    params, seq, _, text = _load_config(args.config)
    fractions = [float(v) for v in args.times.split(",") if v.strip()]
    if not fractions:
        raise ConfigError("empty --times list")
    frames = snapshot_frames(params, seq, fractions)
    header = ["x", "prob_plus", "prob_minus"]
    if args.format == "json":
        _write(args, _snapshots_json(frames, _metadata("dump-snapshots", text, args.seed)))
        return EXIT_OK
    if not args.out:
        raise ConfigError("dump-snapshots with CSV output needs --out as a filename prefix")
    for idx, (t, x, pp, pm) in enumerate(frames):
        rows = np.column_stack([x, pp, pm])
        path = f"{args.out}_{idx:03d}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# time_s = {fmt(t)}\n")
            fh.write(csv_text(header, rows))
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to a flat key=value config file (SI units)")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--seed", type=int, default=None,
                     help="integer recorded in the JSON metadata; no command samples, so it moves no number")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_VALIDATION; exit 2 means a numerical failure."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only "-1" and "-1.5" as negative numbers, so "--start -1e-05"
        # would take "-1e-05" for an option; no flag here starts with a digit
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nanoramsey",
        description="Free-flight spin-force Ramsey interferometry toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sweep", help="general parameter sweep with selectable outputs")
    _add_common(p)
    p.add_argument("--param", required=True, help=f"one of: {', '.join(SWEEPABLE)}")
    p.add_argument("--values", default=None, help="comma-separated explicit values")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--log", action="store_true", help="logarithmic range spacing")
    p.add_argument("--outputs", default=",".join(OUTPUT_COLUMNS),
                   help=f"comma list from: {', '.join(OUTPUT_COLUMNS)}")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("visibility", help="decoherence visibility surface")
    _add_common(p)
    p.add_argument("--dx-min", type=float, default=1e-9)
    p.add_argument("--dx-max", type=float, default=1e-6,
                   help="largest separation (m); the quadrature's error bound holds up to "
                        "about 0.178 m K / T, T the hotter of t_environment and --tint-max "
                        "(1.19e-4 m at 1500 K); beyond that the command exits 2")
    p.add_argument("--dx-count", type=int, default=50)
    p.add_argument("--dx-linear", dest="dx_log", action="store_false")
    p.add_argument("--tint-min", type=float, default=300.0)
    p.add_argument("--tint-max", type=float, default=1500.0)
    p.add_argument("--tint-count", type=int, default=50)
    p.set_defaults(func=_cmd_visibility)

    p = subs.add_parser("certify", help="grid oracle vs closed forms, pass/fail per tolerance")
    p.add_argument("--config", help="config file to certify instead of the three desk sets")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("budget", help="feasibility budget report")
    _add_common(p)
    p.set_defaults(func=_cmd_budget)

    p = subs.add_parser("dicke", help="collective sector table for l spins")
    _add_common(p)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_dicke)

    p = subs.add_parser("dump-snapshots", help="grid |psi|^2 frames at fractions of t3")
    _add_common(p)
    p.add_argument("--times", required=True, help="comma-separated fractions of t3 in [0, 1]")
    p.set_defaults(func=_cmd_dump_snapshots)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ScaleError subclasses ValueError, so the numerical group goes first
    except (ScaleError, ClosureError, GridBoundaryError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
