"""Command line front end.

Subcommands expose every computation: ``hyperdet`` and ``eddeg`` for single
degrees, ``table`` for the frozen golden tables, ``verify`` for the
exhaustive identity and stabilization suites, and ``asympt`` for the growth
estimates with optional exact comparison.

Output is deterministic byte for byte: exact integers are serialized as
decimal strings (they outgrow 2^53 quickly), floats are printed with 12
significant digits, and term/row orders are fixed.  Timing information is
therefore only added on request (``--timing``).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap.
Any other exception is a bug; it is not caught, so it ends the process with
a traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from typing import Callable, List, Sequence, Tuple

from . import asympt as asy
from .combinat import VerificationError
from .eddeg import (frobenius_ed_degree, generic_ed_degree, stabilization_onset,
                    veronese_frobenius_ed_degree)
from .hyperdet import hyperdet_degree, is_dual_nondefective, partition_formats, sv_hyperdet_degree
from .polar import (
    alternating_binomial_identity_holds,
    chern_data_projective_space_product,
    delta0_product_with_hypersurface,
    dual_profile,
    f_identity_holds,
    g_identity_holds,
    stabilization_ratio_check,
)

DEFAULT_CAP_BYTES = 2 * 1024 ** 3

TABLE2_BASES: Tuple[Tuple[int, int], ...] = ((1, 1), (1, 2), (2, 2), (2, 3))
TABLE2_COLUMNS = 6


class UsageError(Exception):
    pass


class CapBudgetError(Exception):
    pass


def _check_cap(what: str, ints: int, bits: int, cap_bytes: int) -> None:
    """Refuse a computation that holds ``ints`` integers below 2^bits at a time
    if they need more than ``cap_bytes``: 8 bytes of slot, 28 + 4 per 30 bits
    each, plus 4 kB of frames and small objects."""
    approx = ints * (36 + 4 * (bits // 30)) + 4096
    if approx > cap_bytes:
        raise CapBudgetError(f"{what} needs about {approx} bytes ({ints} integers up to "
                             f"{bits} bits), over the budget of {cap_bytes}")


def _check_cap_budget(dims: Sequence[int], weights: Sequence[int], cap_bytes: int) -> None:
    """The degree kernel, ``combinat.multinomial_fold``, holds two lists of
    N + 1 integers below d^N prod_j 2^(n_j+1) w_j^n_j.  (x - 1).bit_length()
    is ceil(log2 x)."""
    n_total, d = sum(dims), len(dims)
    bits = (n_total * (d - 1).bit_length() + n_total + d
            + sum(n * (w - 1).bit_length() for n, w in zip(dims, weights)))
    _check_cap(f"the degree kernel for dims {tuple(dims)} (N={n_total}, d={d})",
               2 * (n_total + 1), bits, cap_bytes)


def _check_power_cap(base: int, exponent: int, cap_bytes: int) -> None:
    """The closed forms build base^exponent and hold fewer than ten integers
    of about its size at a time (tracemalloc peak up to eight on Python 3.11)."""
    _check_cap(f"the closed form with {base}^{exponent}", 10,
               exponent * (base - 1).bit_length(), cap_bytes)


def _parse_ints(text: str, what: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse {what} {text!r}: expected comma-separated integers")


def _parse_dims(text: str) -> Tuple[int, ...]:
    dims = _parse_ints(text, "dims")
    if any(n < 0 for n in dims):
        raise UsageError(f"dimensions must be non-negative, got {dims}")
    return dims


def _parse_grid(text: str) -> Tuple[int, ...]:
    """A grid argument: a single value, 'a:b', 'a:b:step', or 'a,b,c'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3) or not all(p.removeprefix("-").isdecimal() for p in parts):
            raise UsageError(f"cannot parse range {text!r}")
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step < 1 or hi < lo:
            raise UsageError(f"invalid range {text!r}")
        return tuple(range(lo, hi + 1, step))
    return _parse_ints(text, "grid")


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _join(values: Sequence[int]) -> str:
    return ",".join(map(str, values))


# -- output -------------------------------------------------------------------


def _record(command: str, parameters: dict, result: object, note: str = "", **extra) -> dict:
    return dict(command=command, parameters=parameters, result=result, note=note, **extra)


def _render(args: argparse.Namespace, records: List[dict],
            csv_rows: List[list] | None = None, plain: List[str] | None = None) -> str:
    """The one output path: records as JSON, CSV or plain text.  ``csv_rows``
    (header included) and ``plain`` lines replace the generic CSV and plain
    layouts where a table's golden layout differs."""
    if args.format == "json":
        # an estimate that overflowed is written as plain and CSV print it
        objs = [{k: _fmt_float(v) if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in rec.items() if k != "elapsed_ms" or args.timing}
                for rec in records]
        return json.dumps(objs, sort_keys=True, separators=(", ", ": "), indent=1,
                          allow_nan=False) + "\n"
    if args.format == "csv":
        if csv_rows is None:
            header = ["command", "parameters", "result", "note"]
            csv_rows = [header + ["elapsed_ms"] if args.timing else header]
            for rec in records:
                params = ";".join(f"{k}={v}" for k, v in sorted(rec["parameters"].items()))
                csv_rows.append([rec["command"], params, str(rec["result"]), rec["note"]])
                if args.timing:
                    csv_rows[-1].append(f"{rec['elapsed_ms']:.3f}" if "elapsed_ms" in rec else "")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows)
        return buf.getvalue()
    if plain is None:
        plain = []
        for rec in records:
            result = rec["result"]
            extras = [f"{key}={rec['parameters'][key]}"
                      for key in ("quantity", "exact", "rel_error") if key in rec["parameters"]]
            if rec["note"]:
                extras.append(f"({rec['note']})")
            if args.timing and "elapsed_ms" in rec:
                extras.append(f"[{rec['elapsed_ms']:.3f} ms]")
            text = _fmt_float(result) if isinstance(result, float) else str(result)
            plain.append(text + "  " + " ".join(extras) if extras else text)
    return "\n".join(plain) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        fh = open(out_path, "w")
    except OSError as exc:
        raise UsageError(f"cannot open --out path {out_path!r}: {exc.strerror}") from None
    with fh:
        fh.write(text)


# -- scalar commands ----------------------------------------------------------


def _timed(fn: Callable, *fn_args) -> Tuple[int, float]:
    start = time.perf_counter()
    value = fn(*fn_args)
    return value, round((time.perf_counter() - start) * 1000.0, 3)


def _cmd_hyperdet(args: argparse.Namespace) -> Tuple[str, int]:
    dims = _parse_dims(args.dims)
    if args.omega < 1:
        raise UsageError(f"--omega must be positive, got {args.omega}")
    _check_cap_budget(dims, (args.omega,) * len(dims), args.cap_bytes)
    value, elapsed = _timed(sv_hyperdet_degree, dims, args.omega)
    note = ""
    if args.omega == 1 and value == 0 and not is_dual_nondefective(dims):
        note = "dual defective"
    params = {"dims": _join(dims), "omega": str(args.omega)}
    return _render(args, [_record("hyperdet", params, str(value), note, elapsed_ms=elapsed)]), 0


def _cmd_eddeg(args: argparse.Namespace) -> Tuple[str, int]:
    dims = _parse_dims(args.dims)
    weights = _parse_ints(args.weights, "weights") if args.weights else (1,) * len(dims)
    if len(weights) != len(dims):
        raise UsageError(f"{len(dims)} dims but {len(weights)} weights")
    if any(w < 1 for w in weights):
        raise UsageError(f"weights must be positive, got {weights}")
    if args.generic:
        metric = "generic"
        _check_cap_budget(dims, weights, args.cap_bytes)
        value, elapsed = _timed(generic_ed_degree, dims, weights)
    elif all(w == 1 for w in weights):
        metric = "frobenius"
        _check_cap_budget(dims, weights, args.cap_bytes)
        value, elapsed = _timed(frobenius_ed_degree, dims)
    elif len(dims) == 1:
        metric = "frobenius"
        if weights[0] < 2:
            raise UsageError("single-factor weights must be at least 2")
        _check_power_cap(weights[0] - 1, dims[0] + 1, args.cap_bytes)
        value, elapsed = _timed(veronese_frobenius_ed_degree, dims[0], weights[0])
    else:
        raise UsageError("Frobenius ED degrees with non-unit weights are only "
                         "available for a single factor; use --generic")
    params = {"dims": _join(dims), "weights": _join(weights), "metric": metric}
    return _render(args, [_record("eddeg", params, str(value), elapsed_ms=elapsed)]), 0


# -- tables -------------------------------------------------------------------


def _dual_cell(n: int) -> int:
    base = chern_data_projective_space_product((1, 1))
    return delta0_product_with_hypersurface(base, n, 2)


def _map_cells(fn: Callable, tasks: Sequence, jobs: int) -> list:
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _base_label(base: Tuple[int, ...]) -> str:
    return "x".join(f"P{n}" for n in base)


def _table_table2(args: argparse.Namespace) -> str:
    tasks = [base + (m,) for base in TABLE2_BASES for m in range(TABLE2_COLUMNS)]
    values = [str(v) for v in _map_cells(frobenius_ed_degree, tasks, args.jobs)]
    rows = [values[i * TABLE2_COLUMNS:(i + 1) * TABLE2_COLUMNS]
            for i in range(len(TABLE2_BASES))]
    records = [_record("table", {"name": "table2", "base": _join(base)}, row)
               for base, row in zip(TABLE2_BASES, rows)]
    csv_rows = [["X"] + [f"m={m}" for m in range(TABLE2_COLUMNS)]]
    plain = ["X      " + "".join(f"m={m:<5}" for m in range(TABLE2_COLUMNS))]
    for base, row in zip(TABLE2_BASES, rows):
        csv_rows.append([_base_label(base)] + row)
        plain.append(f"{_base_label(base):<7}" + "".join(f"{v:<7}" for v in row))
    return _render(args, records, csv_rows, plain)


def _table_stabilization(args: argparse.Namespace) -> str:
    tasks = [base + (m,) for base in TABLE2_BASES for m in range(sum(base) + 4)]
    values = iter(_map_cells(frobenius_ed_degree, tasks, args.jobs))
    records = []
    csv_rows = [["base", "m", "ed_degree", "stable_from"]]
    plain = []
    for base in TABLE2_BASES:
        stable_from = sum(base)
        row = [str(next(values)) for _ in range(stable_from + 4)]
        records.append(_record("table", {"name": "stabilization", "base": _join(base)}, row,
                               stable_from=stable_from))
        csv_rows += [[_base_label(base), m, v, stable_from] for m, v in enumerate(row)]
        plain.append(f"{_base_label(base)}: {' '.join(row)} (stable from m={stable_from})")
    return _render(args, records, csv_rows, plain)


def _table_dual_example(args: argparse.Namespace) -> str:
    ns = list(range(6))
    values = _map_cells(_dual_cell, ns, args.jobs)
    records = [_record("table", {"name": "dual-example", "n": str(n)}, str(v))
               for n, v in zip(ns, values)]
    csv_rows = [["n", "dual_degree"]] + [[n, v] for n, v in zip(ns, values)]
    return _render(args, records, csv_rows, [_join(values)])


_TABLES = {
    "table2": _table_table2,
    "stabilization": _table_stabilization,
    "dual-example": _table_dual_example,
}


# -- verification suites ------------------------------------------------------
# Each sweep reports every failure through ``report`` and returns its case count.


def _ratio_check(report: Callable[[str], None], **bounds: int) -> int:
    ratio = stabilization_ratio_check(**bounds)
    for witness in ratio.failures:
        report(f"alpha ratio failed at (n, m, d, i)={witness[:4]}")
    return ratio.checked


def _verify_identities(max_n: int, report: Callable[[str], None]) -> int:
    checked = 0
    for n in range(max_n + 1):
        for m in range(n + 1):
            for i in range(m + 1):
                checked += 1
                if not alternating_binomial_identity_holds(n, m, i):
                    report(f"binomial identity failed at n={n} m={m} i={i}")
            checked += 1
            if not f_identity_holds(n, m):
                report(f"f identity failed at n={n} m={m}")
        for j in range(1, n + 1):
            checked += 1
            if not g_identity_holds(n, j):
                report(f"g identity failed at n={n} j={j}")
    return checked + _ratio_check(report, m_max=max_n, n_max=max_n, d_max=5)


def _verify_rw_constants(max_d: int, report: Callable[[str], None]) -> int:
    ds = range(3, max_d + 1)
    for d in ds:
        try:
            asy.verify_minimal_point_constants(d)
        except VerificationError as exc:
            report(str(exc))
    return len(ds)


def _verify_stabilization(max_total: int, report: Callable[[str], None]) -> int:
    checked = 0
    for base in partition_formats(max_total):
        checked += 1
        try:
            stabilization_onset(base, sum(base) + 3)
        except VerificationError as exc:
            report(str(exc))
    return checked + _ratio_check(report, m_max=6, n_max=12, d_max=4)


def _verify_cross_oracle(max_total: int, report: Callable[[str], None]) -> int:
    checked = 0
    for dims in partition_formats(max_total):
        checked += 1
        series = hyperdet_degree(dims)
        polar = dual_profile(chern_data_projective_space_product(dims)).deltas[0]
        if series != polar:
            report(f"dual degree mismatch for {dims}: series {series}, polar {polar}")
        if (series == 0) != (not is_dual_nondefective(dims)):
            report(f"defectiveness disagreement for {dims}: degree {series}")
    return checked


# suite -> (sweep, default --max, smallest --max that checks at least one case
# of the suite's own sweep)
_SUITES = {
    "identities": (_verify_identities, 30, 0),
    "rw-constants": (_verify_rw_constants, 10, 3),
    "stabilization": (_verify_stabilization, 7, 1),
    "cross-oracle": (_verify_cross_oracle, 7, 1),
}


def _cmd_verify(args: argparse.Namespace) -> Tuple[str, int]:
    sweep, default_max, min_max = _SUITES[args.suite]
    max_value = default_max if args.max is None else args.max
    if max_value < min_max:
        raise UsageError(f"--max for {args.suite} must be at least {min_max}, got {max_value}")
    failed: List[str] = []
    checked = sweep(max_value, failed.append)
    status = "ok" if not failed else "FAILED"
    params = {"suite": args.suite, "max": str(max_value)}
    records = [_record("verify", params, "FAIL", line) for line in failed]
    records.append(_record("verify", dict(params, checked=str(checked), failures=str(len(failed))),
                           status))
    plain = [f"FAIL {line}" for line in failed]
    plain.append(f"verify {args.suite}: {status} "
                 f"(checked={checked}, failures={len(failed)}, max={max_value})")
    return _render(args, records, plain=plain), 1 if failed else 0


# -- asymptotics --------------------------------------------------------------


def _round12(x: float) -> float:
    return float(_fmt_float(x))


def _estimate_value(log_estimate: float) -> float:
    return _round12(math.exp(log_estimate)) if log_estimate < 709 else float("inf")


def _cmd_asympt(args: argparse.Namespace) -> Tuple[str, int]:
    formula = args.formula
    if args.omega is not None and formula != "sv":
        raise UsageError(f"--omega applies only to the sv formula, not {formula!r}")
    omega = 1 if args.omega is None else args.omega
    if omega < 1:
        raise UsageError(f"--omega must be positive, got {omega}")
    if formula in asy.FORMULAS:
        if args.d < 3:
            raise UsageError(f"formula {formula!r} requires d >= 3")
        if args.grid is None:
            raise UsageError(f"formula {formula!r} needs a grid of n values")
        grid = _parse_grid(args.grid)
        if any(n < 1 for n in grid):
            raise UsageError("grid values must be at least 1")
        exact_fn, log_estimate_fn = asy.FORMULAS[formula]
        records = []
        for n in grid:
            params = {"formula": formula, "d": str(args.d), "n": str(n)}
            if formula == "sv":
                params["omega"] = str(omega)
            log_est = log_estimate_fn(args.d, n, omega)
            if args.compare:
                _check_cap_budget((n,) * args.d, (omega,) * args.d, args.cap_bytes)
                exact = exact_fn((n,) * args.d, omega)
                params["exact"] = str(exact)
                params["rel_error"] = _fmt_float(asy.relative_error(exact, log_est))
            records.append(_record("asympt", params, _estimate_value(log_est)))
        return _render(args, records), 0
    if args.compare:
        raise UsageError(f"--compare applies only to {', '.join(asy.FORMULAS)}, not {formula!r}")
    if formula == "binary":
        if args.grid is not None:
            raise UsageError(f"binary estimates take no grid, got {args.grid!r}")
        if args.d < 2:
            raise UsageError("binary estimates require d >= 2")
        est = asy.binary_asymptotics(args.d)
        base = {"formula": "binary", "d": str(args.d)}
        quantities = [
            ("hyperdet", _estimate_value(est.log_hyperdet)),
            ("ed-frobenius", _estimate_value(est.log_ed_frobenius)),
            ("ed-generic", _estimate_value(est.log_ed_generic)),
            ("hyperdet/ed-frobenius", _round12(est.hyperdet_over_ed_frobenius)),
            ("hyperdet/ed-generic", _round12(est.hyperdet_over_ed_generic)),
        ]
    else:
        if args.grid is None:
            raise UsageError("discriminant ratios need the weight as second argument")
        try:
            omega = int(args.grid)
        except ValueError:
            raise UsageError(f"cannot parse weight {args.grid!r}")
        if args.d < 1 or omega < 3:
            raise UsageError(f"discriminant ratios need n >= 1 and weight >= 3, "
                             f"got n={args.d}, weight={omega}")
        _check_power_cap(2 * omega - 1, args.d + 1, args.cap_bytes)
        ratios = asy.discriminant_ratios(args.d, omega)
        base = {"formula": "discriminant", "n": str(args.d), "omega": str(omega)}
        quantities = [
            ("ratio-to-ed/large-n-form", _round12(ratios.fixed_omega_ratio)),
            ("ratio-to-ed/large-weight-form", _round12(ratios.fixed_n_ratio)),
            ("ratio-to-generic-ed/large-weight-form", _round12(ratios.gen_ratio)),
        ]
    records = [_record("asympt", dict(base, quantity=q), value) for q, value in quantities]
    return _render(args, records), 0


# -- plumbing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segre-degrees",
        description="Exact degrees and ED degrees of products of projective "
                    "spaces, their dual hypersurfaces, and growth estimates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, run: Callable) -> None:
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        # a string default goes through ``type`` too, so a bad environment value
        # is a usage error like a bad flag
        p.add_argument("--jobs", type=int, default=os.environ.get("SEGRE_DEGREES_JOBS", "1"),
                       help="worker processes for table fills (default from SEGRE_DEGREES_JOBS)")
        p.add_argument("--cap-bytes", type=int, default=DEFAULT_CAP_BYTES,
                       help="memory budget in bytes for an exact degree; larger requests exit 3")
        p.add_argument("--timing", action="store_true",
                       help="include elapsed milliseconds (non-deterministic output)")

    p = sub.add_parser("hyperdet", help="degree of the dual hypersurface of a format")
    p.add_argument("dims", help="comma-separated factor dimensions, e.g. 1,1,2")
    p.add_argument("--omega", type=int, default=1, help="equal Veronese weight on every factor")
    add_common(p, _cmd_hyperdet)

    p = sub.add_parser("eddeg", help="ED degree of a format")
    p.add_argument("dims", help="comma-separated factor dimensions")
    p.add_argument("--generic", action="store_true", help="generic metric instead of Frobenius")
    p.add_argument("--weights", default=None, help="comma-separated Veronese weights")
    add_common(p, _cmd_eddeg)

    p = sub.add_parser("table", help="emit a frozen table")
    p.add_argument("name", choices=tuple(_TABLES))
    add_common(p, lambda args: (_TABLES[args.name](args), 0))

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("suite", choices=tuple(_SUITES))
    p.add_argument("--max", type=int, default=None, help="sweep bound (suite-specific default)")
    add_common(p, _cmd_verify)

    p = sub.add_parser("asympt", help="growth estimates, optionally against exact values")
    p.add_argument("formula", choices=(*asy.FORMULAS, "binary", "discriminant"))
    p.add_argument("d", type=int, help="factor count (n for the discriminant ratios)")
    p.add_argument("grid", nargs="?", default=None,
                   help="n value, range a:b[:step], or comma list (weight for discriminant)")
    p.add_argument("--omega", type=int, default=None,
                   help="weight for the sv formula (default 1); a usage error with any other")
    p.add_argument("--compare", action="store_true",
                   help="include exact values and rel. errors (hyperdet, ed, sv)")
    add_common(p, _cmd_asympt)

    return parser


_EXIT_CODES = {UsageError: 2, VerificationError: 1, CapBudgetError: 3}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # exact values outgrow the int -> str digit limit (4300 by default since
    # Python 3.10.7/3.11); lift it while they are printed and restore it after
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.jobs < 1:
            raise UsageError(f"--jobs (default from SEGRE_DEGREES_JOBS) must be at least 1, "
                             f"got {args.jobs}")
        text, code = args.run(args)
        _emit(text, args.out)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
