"""Output checker: invariants for every command, goldens where recorded.

``check`` returns the list of problems found in one invocation's exit code
and stdout (empty when it is correct), and what it learned on the way,
such as the worst certify phase error.

Goldens were recorded with ``record_goldens.py`` and are compared as
follows:

* sweep, visibility, budget and dicke: stdout byte for byte (sha256). For
  JSON output the ``metadata`` object may gain keys; the keys recorded must
  keep their values, and the rest of the document must be unchanged.
* certify: number by number, each within 1e-10 plus one unit of its last
  printed digit (a legitimate FFT reordering moves the last digits of, for
  example, ``centers relative error 1.826e-12``); all text must match.
* dump-snapshots: densities within 1e-9 of each frame's peak, the axis to
  1e-12 relative, the frame times exactly.

Invariants hold for any seed: exit code 0, row and column counts, finite
values, P0 and visibility in [0, 1], normalized densities and the PASS
lines of certify.
"""
from __future__ import annotations

import hashlib
import json
import math
import re

CERTIFY_ABS_TOL = 1.0e-10
PHASE_ERROR_TOL = 1.0e-3          # the oracle's own phase tolerance
SNAPSHOT_PEAK_TOL = 1.0e-9        # density error allowed, relative to the frame peak
SNAPSHOT_QUANTUM = 1.0e-11        # golden densities are stored in these units of the peak
AXIS_RTOL = 1.0e-12
SWEEP_COLUMNS = ["param_value", "phi_g_rad", "p0", "delta_x_max_m", "visibility"]
_NUMBER = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")


# -- invariants -------------------------------------------------------------------


class _Problems(list):
    def require(self, cond, message):
        if not cond:
            self.append(message)
        return cond


def _floats(cells, problems, where):
    try:
        values = [float(c) for c in cells]
    except ValueError:
        problems.append(f"{where}: non-numeric cell")
        return []
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{where}: non-finite value")
    return values


def _close(a, b, rtol=1.0e-10):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _check_sweep_rows(cmd, header, rows, problems):
    exp = cmd.expect
    problems.require(header == SWEEP_COLUMNS, f"header {header}")
    if not problems.require(len(rows) == exp["count"],
                            f"{len(rows)} rows, expected {exp['count']}"):
        return
    table = []
    for i, row in enumerate(rows):
        if not problems.require(len(row) == len(SWEEP_COLUMNS), f"row {i}: {len(row)} columns"):
            return
        table.append(_floats(row, problems, f"row {i}"))
        if problems:
            return
    problems.require(_close(table[0][0], exp["start"]) and _close(table[-1][0], exp["stop"]),
                     "sweep endpoints differ from the requested range")
    for i, (_, _, p0, _, vis) in enumerate(table):
        if not (0.0 <= p0 <= 1.0 and 0.0 <= vis <= 1.0):
            problems.append(f"row {i}: p0 {p0} or visibility {vis} outside [0, 1]")
            return


def _inv_sweep_csv(cmd, text, problems, info):
    lines = text.splitlines()
    if problems.require(bool(lines), "empty output"):
        _check_sweep_rows(cmd, lines[0].split(","), [ln.split(",") for ln in lines[1:]],
                          problems)


def _inv_sweep_json(cmd, text, problems, info):
    doc = json.loads(text)
    _check_sweep_rows(cmd, doc["columns"], doc["rows"], problems)


def _check_surface(cmd, dx, tint, matrix, problems):
    (dx_lo, dx_hi, n_dx), (t_lo, t_hi, n_t) = cmd.expect["dx"], cmd.expect["tint"]
    problems.require(len(dx) == n_dx and len(tint) == n_t,
                     f"axes {len(dx)}x{len(tint)}, expected {n_dx}x{n_t}")
    problems.require(len(matrix) == len(dx) and all(len(r) == len(tint) for r in matrix),
                     "visibility matrix shape does not match the axes")
    if problems:
        return
    problems.require(_close(dx[0], dx_lo) and _close(dx[-1], dx_hi)
                     and _close(tint[0], t_lo) and _close(tint[-1], t_hi),
                     "axis endpoints differ from the requested bounds")
    problems.require(all(0.0 <= v <= 1.0 for r in matrix for v in r),
                     "visibility outside [0, 1]")


def _inv_visibility_csv(cmd, text, problems, info):
    lines = text.splitlines()
    if not problems.require(len(lines) >= 2, "too few lines"):
        return
    head = lines[0].split(",")
    problems.require(head[0] == "delta_x_m\\t_int_K", f"corner cell {head[0]!r}")
    tint = _floats(head[1:], problems, "header")
    rows = [ln.split(",") for ln in lines[1:]]
    dx = _floats([r[0] for r in rows], problems, "delta_x column")
    matrix = [_floats(r[1:], problems, f"row {i}") for i, r in enumerate(rows)]
    if not problems:
        _check_surface(cmd, dx, tint, matrix, problems)


def _inv_visibility_json(cmd, text, problems, info):
    doc = json.loads(text)
    matrix = doc["visibility"]
    for i, row in enumerate(matrix):
        _floats(row, problems, f"row {i}")
    if not problems:
        _check_surface(cmd, doc["delta_x_m"], doc["t_int_K"], matrix, problems)


def _inv_budget_text(cmd, text, problems, info):
    lines = text.splitlines()
    problems.require(lines[:1] == ["feasibility budget"], "missing the report title")
    problems.require("[pass]" in text and "FAIL" not in text, "budget checks do not all pass")


def _inv_budget_json(cmd, text, problems, info):
    doc = json.loads(text)
    problems.require(doc["resolvability_pass"] is True and doc["closure_pass"] is True,
                     "budget checks do not all pass")
    numbers = [v for v in doc.values() if isinstance(v, float)]
    _floats(numbers, problems, "budget")
    problems.require(0.0 <= doc["ramsey_p0"] <= 1.0, "ramsey_p0 outside [0, 1]")


def _check_dicke_rows(cmd, header, rows, problems):
    problems.require(header == ["M", "multiplicity", "phase_rad"], f"header {header}")
    if problems.require(len(rows) == cmd.expect["rows"],
                        f"{len(rows)} sectors, expected {cmd.expect['rows']}"):
        for i, row in enumerate(rows):
            problems.require(len(row) == 3, f"row {i}: {len(row)} columns")
            _floats(row, problems, f"row {i}")


def _inv_dicke_csv(cmd, text, problems, info):
    lines = text.splitlines()
    if problems.require(bool(lines), "empty output"):
        _check_dicke_rows(cmd, lines[0].split(","), [ln.split(",") for ln in lines[1:]],
                          problems)


def _inv_dicke_json(cmd, text, problems, info):
    doc = json.loads(text)
    _check_dicke_rows(cmd, doc["columns"], doc["rows"], problems)


def _inv_certify(cmd, text, problems, info):
    lines = text.splitlines()
    passed = [ln for ln in lines if re.fullmatch(r"\[[\w-]+\] PASS", ln)]
    problems.require(len(passed) == cmd.expect["runs"],
                     f"{len(passed)} PASS runs, expected {cmd.expect['runs']}")
    problems.require(lines[-1:] == ["certification: PASS"], "certification did not PASS")
    errors = [float(m.group(1)) for m in re.finditer(r"^  phase .* error (\S+) \(tol", text,
                                                      re.MULTILINE)]
    if problems.require(len(errors) == cmd.expect["runs"], "missing phase error lines"):
        info["oracle_phase_error_rad"] = max(errors)
        problems.require(max(errors) <= PHASE_ERROR_TOL,
                         f"phase error {max(errors):.3e} above {PHASE_ERROR_TOL:.0e}")


def _inv_snapshots(cmd, text, problems, info):
    doc = json.loads(text)
    frames = doc["frames"]
    if not problems.require(len(frames) == cmd.expect["frames"],
                            f"{len(frames)} frames, expected {cmd.expect['frames']}"):
        return
    for i, frame in enumerate(frames):
        x = _floats(frame["x"], problems, f"frame {i} x")
        for branch in ("prob_plus", "prob_minus"):
            p = _floats(frame[branch], problems, f"frame {i} {branch}")
            if not problems.require(len(x) == len(p) == cmd.expect["points"],
                                    f"frame {i}: {len(p)} points"):
                return
            problems.require(min(p) >= 0.0, f"frame {i} {branch}: negative density")
            norm = sum(p) * (x[1] - x[0])
            problems.require(abs(norm - 1.0) <= 1e-6, f"frame {i} {branch}: norm {norm}")


INVARIANTS = {
    "sweep_csv": _inv_sweep_csv,
    "sweep_json": _inv_sweep_json,
    "visibility_csv": _inv_visibility_csv,
    "visibility_json": _inv_visibility_json,
    "budget_text": _inv_budget_text,
    "budget_json": _inv_budget_json,
    "dicke_csv": _inv_dicke_csv,
    "dicke_json": _inv_dicke_json,
    "certify": _inv_certify,
    "snapshots": _inv_snapshots,
}


# -- goldens --------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(text: str, meta_keys) -> bytes:
    """The JSON document with its metadata cut to ``meta_keys``, re-serialized."""
    doc = json.loads(text)
    if "metadata" in doc:
        doc["metadata"] = {k: v for k, v in doc["metadata"].items() if k in meta_keys}
    tail = text[len(text.rstrip()):]
    return (json.dumps(doc, sort_keys=True, indent=1) + tail).encode()


def _split_numbers(text: str):
    return _NUMBER.split(text), _NUMBER.findall(text)


def _last_digit_unit(token: str) -> float:
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _quantize(values, peak):
    q = [round(v / peak / SNAPSHOT_QUANTUM) for v in values]
    nonzero = [i for i, v in enumerate(q) if v]
    lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero else (0, 0)
    return {"peak": peak, "first": lo, "values": q[lo:hi]}


def make_golden(cmd, out: bytes) -> dict:
    """The golden record of one command's stdout at the current commit."""
    text = out.decode()
    if cmd.check == "certify":
        return {"text": text}
    if cmd.check == "snapshots":
        doc = json.loads(text)
        frames = []
        for frame in doc["frames"]:
            x = [float(v) for v in frame["x"]]
            rec = {"time_s": frame["time_s"], "x_first": x[0], "x_last": x[-1], "n": len(x)}
            for branch in ("prob_plus", "prob_minus"):
                p = [float(v) for v in frame[branch]]
                rec[branch] = _quantize(p, max(p))
            frames.append(rec)
        return {"frames": frames, "metadata": doc["metadata"]}
    golden = {"sha256": _sha(out)}
    if cmd.check.endswith("_json"):
        meta = json.loads(text).get("metadata", {})
        golden["meta_keys"] = sorted(meta)
        if _canonical(text, meta) != out:
            raise ValueError(f"{cmd.key}: JSON output does not re-serialize to its own bytes")
    return golden


def _cmp_certify(golden, text, problems):
    gold_skeleton, gold_numbers = _split_numbers(golden["text"])
    skeleton, numbers = _split_numbers(text)
    if not problems.require(skeleton == gold_skeleton and len(numbers) == len(gold_numbers),
                            "certify report text differs from the golden"):
        return
    for g, n in zip(gold_numbers, numbers):
        tol = CERTIFY_ABS_TOL + _last_digit_unit(g)
        if abs(float(n) - float(g)) > tol:
            problems.append(f"certify number {n} differs from golden {g} by more than {tol:.1e}")


def _cmp_snapshots(golden, text, problems):
    doc = json.loads(text)
    meta = doc.get("metadata", {})
    problems.require(all(meta.get(k) == v for k, v in golden["metadata"].items()),
                     "snapshot metadata differs from the golden")
    if not problems.require(len(doc["frames"]) == len(golden["frames"]), "frame count"):
        return
    for i, (frame, gold) in enumerate(zip(doc["frames"], golden["frames"])):
        problems.require(frame["time_s"] == gold["time_s"], f"frame {i}: time {frame['time_s']}")
        x = [float(v) for v in frame["x"]]
        if not problems.require(len(x) == gold["n"], f"frame {i}: {len(x)} points"):
            return
        problems.require(_close(x[0], gold["x_first"], AXIS_RTOL)
                         and _close(x[-1], gold["x_last"], AXIS_RTOL),
                         f"frame {i}: grid axis differs from the golden")
        for branch in ("prob_plus", "prob_minus"):
            g = gold[branch]
            tail = gold["n"] - g["first"] - len(g["values"])
            ref = [0] * g["first"] + g["values"] + [0] * tail
            peak = g["peak"]
            tol = SNAPSHOT_PEAK_TOL + 0.5 * SNAPSHOT_QUANTUM
            worst = max(abs(float(v) / peak - r * SNAPSHOT_QUANTUM)
                        for v, r in zip(frame[branch], ref))
            problems.require(worst <= tol, f"frame {i} {branch}: density off by "
                                           f"{worst:.2e} of the peak (tol {tol:.1e})")


def _cmp_golden(cmd, golden, out, problems):
    text = out.decode()
    if cmd.check == "certify":
        _cmp_certify(golden, text, problems)
    elif cmd.check == "snapshots":
        _cmp_snapshots(golden, text, problems)
    else:
        data = _canonical(text, golden["meta_keys"]) if "meta_keys" in golden else out
        problems.require(_sha(data) == golden["sha256"], "stdout differs from the golden bytes")


def check(cmd, rc: int, out: bytes, goldens: dict) -> tuple[list[str], dict]:
    """(problems, info) for one invocation; no problems means correct."""
    problems, info = _Problems(), {}
    problems.require(rc == 0, f"exit code {rc}, expected 0")
    try:
        INVARIANTS[cmd.check](cmd, out.decode(), problems, info)
        golden = goldens.get(cmd.key)
        if golden is not None:
            _cmp_golden(cmd, golden, out, problems)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        # malformed output: JSON that does not parse, a missing key, a short row
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return list(problems), info


def selftest(goldens: dict, certify_cmd, sweep_cmd, sweep_out: bytes) -> list[str]:
    """Show that the checker flags a perturbed certify number and a flipped CSV byte.

    Returns what went wrong with the self-test itself (empty when the
    checker passed the genuine outputs and flagged both corruptions).
    """
    failures = []
    gold_text = goldens[certify_cmd.key]["text"]
    if check(certify_cmd, 0, gold_text.encode(), goldens)[0]:
        failures.append("golden certify report rejected")
    skeleton, numbers = _split_numbers(gold_text)
    i = next(k for k, n in enumerate(numbers) if "." in n and "e" not in n.lower()
             and _last_digit_unit(n) <= 1e-8)
    bumped = f"{float(numbers[i]) + 100 * _last_digit_unit(numbers[i]):+.9f}"
    numbers[i] = bumped
    perturbed = "".join(s + n for s, n in zip(skeleton, numbers + [""]))
    if not check(certify_cmd, 0, perturbed.encode(), goldens)[0]:
        failures.append("certify number moved by 1e-7 was not flagged")
    if check(sweep_cmd, 0, sweep_out, goldens)[0]:
        failures.append("genuine sweep CSV rejected")
    pos = len(sweep_out) // 2
    while not chr(sweep_out[pos]).isdigit():
        pos += 1
    flipped = bytearray(sweep_out)
    flipped[pos] = ord("0") + (sweep_out[pos] - ord("0") + 1) % 10
    if not check(sweep_cmd, 0, bytes(flipped), goldens)[0]:
        failures.append("sweep CSV with one flipped byte was not flagged")
    return failures
