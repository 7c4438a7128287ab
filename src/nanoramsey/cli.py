"""Command-line frontend.

Subcommands: sweep, visibility, certify, budget, dicke, dump-snapshots; sweep
moves one of the config keys in ``SWEEPABLE``, those its columns read. Outputs
are deterministic (12-significant-digit scientific CSV, or the JSON mirror with
config hash and version); the CLI never computes anything itself, it formats
library results. Exit codes: 0 success, 1 validation or usage error, 2 numerical
or certification failure. The command line is read in one pass by ``parse_args``
from the ``COMMANDS`` table; no parser object is built, and neither argparse nor
the gettext and locale modules it pulls in are imported.

Every document is an iterable of ``bytes`` pieces (see ``io``), written in
binary as the pieces are made, to ``--out`` or to ``sys.stdout.buffer``: never
joined, decoded or encoded whole, and with no newline translation. A sweep's
physics runs ``SWEEP_BLOCK`` points at a time, and all of it before the first
byte is written, so a sweep that fails writes nothing.
"""
from __future__ import annotations

import gc
import math
import sys
from collections.abc import Iterator
from types import SimpleNamespace

import numpy as np

from . import __version__
from .budget import budget_report
from .decoherence import MAX_SEPARATIONS, QuadratureError, surface_to_csv, surface_to_json, visibility_surface
from .dicke import collective_final_state, sector_phase_quadratic_coefficient, sector_table
from .dynamics import PulseSequence, fringe
from .grid import (CERTIFY_DESK, SNAPSHOT_POINTS, ClosureError, GridBoundaryError, ScaleError,
                   desk_scale_params, oracle_compare, snapshot_frames, snapshot_grid)
from .io import BLOCK_BYTES, SIZE_BUDGET, Cells, config_sha256, csv_text, fmt, json_document, json_table
from .params import ConfigError, all_of, any_of, build_params, number, parse_config_text

# the import graph lives until exit; frozen, it is walked by no collection, not even shutdown's
gc.freeze()

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

#: The keys ``sweep --param`` moves: each reaches an output column, the radius and density
#: through the mass of a config that derives it. A key no column reads is refused.
SWEEPABLE = ("mass", "radius", "density", "b_gradient", "theta", "t3", "trap_omega", "g_nv", "g_earth", "t1", "t2")

OUTPUT_COLUMNS = ("phi_g_rad", "p0", "delta_x_max_m", "visibility")

#: The size flags' ceilings: ``io.SIZE_BUDGET`` over a unit's tracemalloc peak, rounded up: a
#: sweep point 640 B, a surface temperature 16 KiB (its channel's weighted spectrum) and a cell
#: 128 B, a frame 256 B a grid point (512 KiB on the 2048-point grid). A frame's grid can be
#: wider than that, so ``--times`` is held to ``MAX_FRAME_POINTS`` on the grid the config sizes,
#: as well as to ``MAX_FRAMES``.
MAX_SWEEP_POINTS = SIZE_BUDGET // 640
MAX_TEMPERATURES = SIZE_BUDGET // (16 << 10)
MAX_CELLS = SIZE_BUDGET // 128
MAX_FRAME_POINTS = SIZE_BUDGET // 256
MAX_FRAMES = MAX_FRAME_POINTS // SNAPSHOT_POINTS

#: Points per block of a sweep's physics: a block's widest temporary, complex128 (``params.exp``,
#: ``atan2``, ``_polar``), is ``io.BLOCK_BYTES``.
SWEEP_BLOCK = BLOCK_BYTES // 16


def _sequence_from_config(cfg: dict) -> PulseSequence:
    t3 = number(cfg["t3"])
    t1 = number(cfg.get("t1", t3 / 4.0))
    t2 = number(cfg.get("t2", 3.0 * t3 / 4.0))
    jitter = tuple(float(cfg.get(f"jitter_{t}", 0.0)) for t in ("t1", "t2", "t3"))
    return PulseSequence(t1=t1, t2=t2, t3=t3, jitter=jitter)


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cfg = parse_config_text(text)
    return build_params(cfg), _sequence_from_config(cfg), cfg, text


def _metadata(command: str, cfg_text: str, seed) -> dict:
    return {"command": command, "config_sha256": config_sha256(cfg_text), "version": __version__, "seed": seed}


def _write(args, pieces):
    """Write a document's byte pieces as they are made, to ``--out`` or to stdout.

    A reader that closes stdout early, as ``| head`` does, ends the output but is no error: the
    rest goes to the null device, and the command exits as it would have.
    """
    if args.out:
        with open(args.out, "wb") as fh:
            fh.writelines(pieces)
        return
    sys.stdout.flush()
    try:
        sys.stdout.buffer.writelines(pieces)
    except BrokenPipeError:
        import os
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _numbers(text: str, flag: str, most: int) -> list[float]:
    """The comma-separated entries of ``flag`` as floats, refused by flag and entry, or by
    flag if there are none or more than ``most``."""
    entries = list(filter(str.strip, text.split(",")))
    if len(entries) > most:
        raise ConfigError(f"{flag} takes at most {most} entries, got {len(entries)}")
    values = []
    for entry in entries:
        try:
            values.append(float(entry))
        except ValueError:
            raise ConfigError(f"{flag} entry {entry.strip()!r} is not a number") from None
    if not values:
        raise ConfigError(f"empty {flag} list")
    return values


def _sweep_values(args):
    if args.values is not None:
        ranged = [flag for flag, given in (("--start", args.start is not None), ("--stop", args.stop is not None),
                                           ("--count", args.count != 0), ("--log", args.log)) if given]
        if ranged:
            raise ConfigError(f"--values takes no range flags, got {', '.join(ranged)}")
        vals = _numbers(args.values, "--values", MAX_SWEEP_POINTS)
        bad = [v for v in vals if not math.isfinite(v)]
        if bad:
            raise ConfigError(f"--values must be finite, got {bad[0]!r}")
        return vals
    if args.start is None or args.stop is None:
        raise ConfigError("pass --values or all of --start/--stop/--count")
    for name, value in (("--start", args.start), ("--stop", args.stop)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    if args.count < 2:
        raise ConfigError("--count must be >= 2 for a range sweep")
    if args.count > MAX_SWEEP_POINTS:
        raise ConfigError(f"--count must be at most {MAX_SWEEP_POINTS}, got {args.count!r}")
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
    every = all_of(balanced)
    if every or not any_of(balanced):
        return dict(zip(OUTPUT_COLUMNS, fringe(params, seq, every)))
    parts = [(mask, _sweep_outputs(cfg, name, values[mask])) for mask in (balanced, ~balanced)]
    out = {}
    for column in OUTPUT_COLUMNS:
        out[column] = np.empty(values.shape)
        for mask, part in parts:
            out[column][mask] = part[column]
    return out


def _sweep_rows(cfg: dict, name: str, values, outputs):
    """The table of the swept ``values`` and their ``outputs``: an
    (n, 1 + len(outputs)) float matrix, computed ``SWEEP_BLOCK`` points at a
    time."""
    swept = np.asarray(values, dtype=float)
    table = np.empty((swept.size, 1 + len(outputs)))
    table[:, 0] = swept
    try:
        with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
            for start in range(0, swept.size, SWEEP_BLOCK):
                points = _sweep_outputs(cfg, name, swept[start:start + SWEEP_BLOCK])
                for column, c in enumerate(outputs, 1):
                    table[start:start + SWEEP_BLOCK, column] = points[c]
    except (ValueError, ArithmeticError):
        # Some point of the block at ``start`` is invalid or hits a float exception
        # (numpy reports x/0, where Python raises); each earlier block computed, so
        # each of its points does alone. From that block on, point by point, the
        # first such point raises, or every point computes, exactly as it does alone.
        for row, value in enumerate(values[start:], start):
            point = _sweep_outputs(cfg, name, value)
            table[row, 1:] = [point[c] for c in outputs]
    return table


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
    params, seq, _, text = _load_config(args.config)
    for flag in ("dx_min", "dx_max", "tint_min", "tint_max"):
        value, name = getattr(args, flag), f"--{flag.replace('_', '-')}"
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite")
        if args.dx_log and flag.startswith("dx"):
            if not value > 0.0:
                raise ConfigError(f"{name} must be > 0 under log spacing, got {value!r}")
        elif value < 0.0:
            raise ConfigError(f"{name} must be >= 0, got {value!r}")
    for flag, most in (("dx_count", MAX_SEPARATIONS), ("tint_count", MAX_TEMPERATURES)):
        if not 1 <= getattr(args, flag) <= most:
            raise ConfigError(f"--{flag.replace('_', '-')} must lie in [1, {most}], got {getattr(args, flag)!r}")
    if args.dx_count * args.tint_count > MAX_CELLS:
        raise ConfigError(f"--dx-count x --tint-count must be at most {MAX_CELLS} cells, got "
                          f"{args.dx_count!r} x {args.tint_count!r}")
    dx_axis = (np.geomspace if args.dx_log else np.linspace)(args.dx_min, args.dx_max, args.dx_count)
    tint_axis = np.linspace(args.tint_min, args.tint_max, args.tint_count)
    surface = visibility_surface(params, dx_axis, tint_axis, flight_time=seq.effective_times()[2])
    _write(args, surface_to_json(surface, _metadata("visibility", text, args.seed)) if args.format == "json"
           else surface_to_csv(surface))
    return EXIT_OK


def _cmd_certify(args) -> int:
    if args.config:
        params, seq, _, _ = _load_config(args.config)
        runs = {"config": (params, seq)}
    else:
        runs = {label: desk_scale_params(*desk_set) for label, desk_set in CERTIFY_DESK.items()}
    all_ok, lines = True, []
    reports = [oracle_compare(*run) for run in runs.values()]
    for label, report in zip(runs, reports):
        ok = report.passed and report.closure_ok
        all_ok &= ok
        lines.append(f"[{label}] {'PASS' if ok else 'FAIL'}")
        lines.extend("  " + ln for ln in report.lines())
    lines.append(f"certification: {'PASS' if all_ok else 'FAIL'}")
    _write(args, ["\n".join(lines).encode() + b"\n"])
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def _cmd_budget(args) -> int:
    params, seq, _, text = _load_config(args.config)
    report = budget_report(params, seq)
    _write(args, [*report.to_json(_metadata("budget", text, args.seed)), b"\n"] if args.format == "json"
           else [report.to_text().encode()])
    return EXIT_OK if report.all_pass() else EXIT_NUMERICAL


def _cmd_dicke(args) -> int:
    params, seq, _, text = _load_config(args.config)
    header, rows = sector_table(collective_final_state(params, seq, args.l))
    meta = _metadata("dicke", text, args.seed)
    meta["l"] = args.l
    meta["phase_rad"] = ("linear M * phi_g; the exact sector phase adds "
                         "sector_phase_quadratic_coefficient * M^2")
    meta["sector_phase_quadratic_coefficient"] = sector_phase_quadratic_coefficient(params, seq)
    _write(args, json_table(header, rows, meta) if args.format == "json"
           else csv_text(header, rows))
    return EXIT_OK


def _snapshots_json(frames, metadata: dict) -> Iterator[bytes]:
    """The frames as a JSON document's byte pieces, every number a fmt string."""
    return json_document({
        "frames": [{"prob_minus": Cells(pm), "prob_plus": Cells(pp), "time_s": fmt(t), "x": Cells(x)}
                   for t, x, pp, pm in frames],
        "metadata": metadata,
    })


def _cmd_dump_snapshots(args) -> int:
    params, seq, _, text = _load_config(args.config)
    fractions = _numbers(args.times, "--times", MAX_FRAMES)
    spec = snapshot_grid(params, seq)
    if len(fractions) * spec.n_points > MAX_FRAME_POINTS:
        raise ConfigError(f"--times takes at most {MAX_FRAME_POINTS // spec.n_points} entries on this "
                          f"config's {spec.n_points}-point grid, got {len(fractions)}")
    frames = snapshot_frames(params, seq, fractions, spec)
    header = ["x", "prob_plus", "prob_minus"]
    if args.format == "json":
        _write(args, _snapshots_json(frames, _metadata("dump-snapshots", text, args.seed)))
        return EXIT_OK
    if not args.out:
        raise ConfigError("dump-snapshots with CSV output needs --out as a filename prefix")
    for idx, (t, x, pp, pm) in enumerate(frames):
        with open(f"{args.out}_{idx:03d}.csv", "wb") as fh:
            fh.write(f"# time_s = {fmt(t)}\n".encode())
            fh.writelines(csv_text(header, np.column_stack([x, pp, pm])))
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------

#: The default of an option that the command cannot run without.
REQUIRED = object()

_COMMON = (
    ("--config", str, REQUIRED, "path to a flat key=value config file (SI units)"),
    ("--out", str, None, "output path (default: stdout)"),
    ("--format", ("csv", "json"), "csv", ""),
    ("--seed", int, None, "integer recorded in the JSON metadata; no command samples, so it moves no number"),
)

#: command -> (function, help line, options). An option is (flag, type, default, help); its type
#: converts the value, or is the tuple of choices, or is the bool that the bare flag stores.
COMMANDS = {
    "sweep": (_cmd_sweep, "general parameter sweep with selectable outputs", (
        *_COMMON,
        ("--param", str, REQUIRED, f"one of: {', '.join(SWEEPABLE)}"),
        ("--values", str, None, "comma-separated explicit values"),
        ("--start", float, None, "first value of a range sweep, in the swept key's SI unit"),
        ("--stop", float, None, "last value of a range sweep (included), in the same unit"),
        ("--count", int, 0, "points of a range sweep, at least 2; linearly spaced unless --log"),
        ("--log", True, False, "logarithmic range spacing"),
        ("--outputs", str, ",".join(OUTPUT_COLUMNS), f"comma list from: {', '.join(OUTPUT_COLUMNS)}"),
    )),
    "visibility": (_cmd_visibility, "decoherence visibility surface", (
        *_COMMON,
        ("--dx-min", float, 1e-9, "smallest separation (m), default 1e-9"),
        ("--dx-max", float, 1e-6, "largest separation (m), default 1e-6; the quadrature's error bound "
         "holds up to about 0.178 m K / T, T the hotter of t_environment and --tint-max (1.19e-4 m at "
         "1500 K); beyond that the command exits 2"),
        ("--dx-count", int, 50, "number of separations, default 50; log-spaced unless --dx-linear"),
        ("--dx-linear", False, True, "space the separations linearly (default: logarithmically)"),
        ("--tint-min", float, 300.0, "lowest internal temperature (K), default 300"),
        ("--tint-max", float, 1500.0, "highest internal temperature (K), default 1500"),
        ("--tint-count", int, 50, "number of internal temperatures, linearly spaced, default 50"),
    )),
    "certify": (_cmd_certify, "grid oracle vs closed forms, pass/fail per tolerance", (
        ("--config", str, None, "config file to certify instead of the three desk sets"), _COMMON[1])),
    "budget": (_cmd_budget, "feasibility budget report", _COMMON),
    "dicke": (_cmd_dicke, "collective sector table for l spins", (*_COMMON, ("--l", int, REQUIRED, ""))),
    "dump-snapshots": (_cmd_dump_snapshots, "grid |psi|^2 frames at fractions of t3", (
        *_COMMON, ("--times", str, REQUIRED, "comma-separated fractions of t3 in [0, 1]"))),
}


def _dest(flag: str) -> str:
    # --dx-linear switches off the default log spacing
    return "dx_log" if flag == "--dx-linear" else flag[2:].replace("-", "_")


def _spec(flag: str, kind) -> str:
    if isinstance(kind, bool):
        return flag
    return f"{flag} {{{','.join(kind)}}}" if isinstance(kind, tuple) else f"{flag} {_dest(flag).upper()}"


def _usage(command) -> str:
    if command is None:
        return f"usage: nanoramsey [-h] [--version] {{{','.join(COMMANDS)}}} ..."
    return " ".join([f"usage: nanoramsey {command} [-h]", *(
        _spec(flag, kind) if default is REQUIRED else f"[{_spec(flag, kind)}]"
        for flag, kind, default, _ in COMMANDS[command][2])])


def _help(command) -> str:
    rows = [("-h, --help", "show this help message and exit")] + (
        [("--version", "show the version and exit"), *((name, c[1]) for name, c in COMMANDS.items())]
        if command is None else [(_spec(flag, kind), text) for flag, kind, _, text in COMMANDS[command][2]])
    about = COMMANDS[command][1] if command else "Free-flight spin-force Ramsey interferometry toolkit"
    lines = (f"  {name:<22}{text}" if len(name) < 22 else f"  {name}\n{'':24}{text}" for name, text in rows)
    return "\n".join([_usage(command), "", about, "", *map(str.rstrip, lines)]) + "\n"


def _usage_error(command, message: str):
    sys.stderr.write(f"{_usage(command)}\nnanoramsey{' ' + command if command else ''}: error: {message}\n")
    raise SystemExit(EXIT_VALIDATION)


def _is_option(token: str) -> bool:
    """Whether ``token`` names an option: it starts with "-" and does not read as a negative
    number, so "--start -1e-05" takes "-1e-05" as its value (argparse's ``^-\\.?\\d``)."""
    digits = token[2:] if token[1:2] == "." else token[1:]
    return token.startswith("-") and not digits[:1].isdecimal()


def parse_args(argv) -> SimpleNamespace:
    """``argv`` (no program name) as a namespace of ``command``, ``func`` and each option of the
    command. Flags are spelled in full, as ``--flag value`` or ``--flag=value``; a repeated flag
    keeps its last value. A usage error prints the usage line and the error and exits with
    EXIT_VALIDATION; ``-h``, ``--help`` and ``--version`` print to stdout and exit 0."""
    argv, command, values, extras, i = list(argv), None, {}, [], 0
    kinds = dict.fromkeys(("-h", "--help", "--version"))        # before the command
    while i < len(argv):
        token, i = argv[i], i + 1
        flag, eq, explicit = token.partition("=")
        if not _is_option(token) and command is None:
            if token not in COMMANDS:
                _usage_error(None, f"argument command: invalid choice: {token!r} "
                                   f"(choose from {', '.join(map(repr, COMMANDS))})")
            command, options = token, COMMANDS[token][2]
            kinds = {"-h": None, "--help": None, **{flag: kind for flag, kind, _, _ in options}}
            values = {_dest(flag): default for flag, _, default, _ in options}
        elif not _is_option(token) or flag not in kinds:
            extras.append(token)
        elif eq and not isinstance(kinds[flag], (type, tuple)):    # a switch takes no value
            _usage_error(command, f"argument {flag}: ignored explicit argument {explicit!r}")
        elif kinds[flag] is None:
            sys.stdout.write(f"{__version__}\n" if flag == "--version" else _help(command))
            raise SystemExit(EXIT_OK)
        elif isinstance(kinds[flag], bool):
            values[_dest(flag)] = kinds[flag]
        else:
            if not eq:
                if i == len(argv) or _is_option(argv[i]):
                    _usage_error(command, f"argument {flag}: expected one argument")
                explicit, i = argv[i], i + 1
            kind = kinds[flag]
            if isinstance(kind, tuple) and explicit not in kind:
                _usage_error(command, f"argument {flag}: invalid choice: {explicit!r} "
                                      f"(choose from {', '.join(map(repr, kind))})")
            try:
                values[_dest(flag)] = explicit if isinstance(kind, tuple) else kind(explicit)
            except ValueError:
                _usage_error(command, f"argument {flag}: invalid {kind.__name__} value: {explicit!r}")
    if command is None:
        _usage_error(None, "the following arguments are required: command")
    missing = [flag for flag, _, _, _ in COMMANDS[command][2] if values[_dest(flag)] is REQUIRED]
    if missing or extras:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}" if missing
                     else f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, func=COMMANDS[command][0], **values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    # ScaleError subclasses ValueError, so the numerical group goes first
    except (ScaleError, ClosureError, GridBoundaryError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
