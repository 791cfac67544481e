"""Command line front end.

Subcommands expose every computation: ``hyperdet`` and ``eddeg`` for single
degrees, ``table`` for the frozen golden tables, ``verify`` for the
exhaustive identity and stabilization suites, and ``asympt`` for the growth
estimates with optional exact comparison.

Output is deterministic byte for byte: exact integers are serialized as
decimal strings (they outgrow 2^53 quickly), floats are printed with 12
significant digits, and term/row orders are fixed.  ``--timing`` leaves them
as they are: ``main`` writes one ``timing:`` line on stderr after the output.
``_render`` writes JSON and CSV itself, to the byte as ``json.dumps`` and
``csv.writer`` write a record: text of printable ASCII without ``"`` or ``\\``,
integers, finite floats, lists and dicts; any other value is a bug and raises.
So no request imports ``json``, ``csv`` or the ``re`` that ``json`` loads.

The command line grammar is one table, ``_COMMANDS``, with one shape for
positionals and options, which ``parse_args`` walks and ``--help`` prints.
Exit codes: 0 success, 1 verification failure, 2 usage error (one ``error:``
line), 3 resource cap (over the byte budget, or a ``MemoryError``).  Any other
exception is a bug; it is not caught, so it ends the process with a traceback.
A usage error is ``combinat.UsageError``, and a library refusal of an argv value is exit 2:
each argv integer is refused once, by the bound that decides, so ``combinat.at_least`` reads
here only a minimum no library rule overrides (dims 0, ``--jobs`` 1), never a route's bound.
A refusal, the cap's included, shows each integer through ``combinat.show_int``:
past 4300 digits, as its digit count.
Every library name is read through its module (``hyperdet.route``,
``polar.dual_profile``), as the library modules read each other
(``hyperdet.is_dual_nondefective`` in ``eddeg``): the package registers its
submodules lazily, so a request runs only the modules its route reads, and the
import of this module runs only ``combinat``.
"""

import atexit
import math
import os
import sys
import time
from collections.abc import Callable, Sequence
from operator import index
from types import SimpleNamespace

from . import asympt as asy, eddeg, hyperdet, polar
from .combinat import Route, UsageError, VerificationError, at_least, show_int

TYPE_CHECKING = False  # true only to type checkers, which know the name
if TYPE_CHECKING:  # annotations only; ``_ratio_value`` imports decimal on its one path
    from decimal import Decimal

__all__ = ["CapBudgetError", "UsageError", "main", "parse_args", "run"]

DEFAULT_CAP_BYTES = 2 * 1024 ** 3

TABLE2_BASES: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 2), (2, 3))
TABLE2_COLUMNS = 6


class CapBudgetError(Exception):
    pass


def _check_cap(cap_bytes: int, what: str, need: int) -> None:
    """Refuses ``what`` when the bytes it needs, a route's peak, are over ``cap_bytes``."""
    if need > cap_bytes:
        raise CapBudgetError(f"{what} needs about {show_int(need)} bytes, "
                             f"over the budget of {show_int(cap_bytes)}")


def _degree(route: Route, cap_bytes: int) -> object:
    """Charges the peak of ``route`` (if it holds one) against ``cap_bytes``, then runs it."""
    if route.peak is not None:
        _check_cap(cap_bytes, *route.peak)
    return route.call()


def _integers(text: str, what: str, least: int | None, sep: str | None = None) -> tuple[int, ...]:
    """The one reader of integers in argv: ASCII digits after an optional minus
    sign, each value at least ``least`` by ``combinat.at_least`` (None: any value).
    ``sep`` splits a comma list or a range into values; without it ``text`` is one value."""
    parts = text.split(sep) if sep else [text]
    if not all(part.removeprefix("-").isdecimal() and part.isascii() for part in parts):
        raise UsageError(f"{what} must be {'integers' if sep else 'an integer'}, got {text!r}")
    values = tuple(map(int, parts))
    if least is not None:
        at_least(min(values), least, what)
    return values


def _parse_grid(text: str) -> Sequence[int]:
    """A grid argument: a single value, 'a,b,c', 'a:b' or 'a:b:step'.  A range
    stays a ``range``, so its length is known before any point is built."""
    if ":" not in text:
        return _integers(text, "grid values", 1, ",")
    bounds = _integers(text, "range a:b[:step]", 1, ":")
    if len(bounds) not in (2, 3) or bounds[1] < bounds[0]:
        raise UsageError(f"invalid range {text!r}: need 1 <= a <= b and step >= 1")
    grid = range(bounds[0], bounds[1] + 1, *bounds[2:])
    try:
        len(grid)
    except OverflowError:
        raise UsageError(f"range {text!r} has too many values") from None
    return grid


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _join(values: Sequence[int]) -> str:
    return ",".join(map(str, values))


# -- output -------------------------------------------------------------------


def _record(command: str, parameters: dict, result: object, note: str = "", **extra) -> dict:
    return dict(command=command, parameters=parameters, result=result, note=note, **extra)


def _field(value: object) -> str:
    """A text or an integer of a record as both writers put it out.  A record's text is printable
    ASCII without ``"`` or ``\\``, which neither writer escapes; any other text, a ``bool`` (which
    ``index`` reads as 0 or 1) or any other type is a bug: ``TypeError``, which ``main`` does not
    catch, so the process ends with a traceback and exit 1."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return value
    elif not isinstance(value, bool):
        return str(index(value))  # an integer; index refuses any other type
    raise TypeError(f"a record cannot hold {value!r}")


def _json(value: object, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, separators=(", ", ": "), indent=1,
    allow_nan=False)`` writes it: a non-empty list or dict puts each item on its own line, one
    space deeper, and ends every line but its last with ``", "``.  No record holds a non-finite
    float (``OverflowError``) or a value ``_field`` refuses (``TypeError``): either is a bug."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise OverflowError(f"JSON cannot hold the float {value!r}")
        return float.__repr__(value)
    inner = indent + " "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f'"{_field(key)}": {_json(item, inner)}' for key, item in sorted(value.items())]
    elif isinstance(value, list):
        brackets = "[]"
        items = [_json(item, inner) for item in value]
    else:
        return f'"{_field(value)}"' if isinstance(value, str) else _field(value)
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{(', ' + inner).join(items)}{indent}{brackets[1]}"


def _csv_field(field: object) -> str:
    """A text or integer field as ``csv.writer`` writes it: quoted when it holds a comma."""
    text = _field(field)
    return f'"{text}"' if "," in text else text


def _render(args: SimpleNamespace, records: list[dict],
            csv_rows: list[list] | None = None, plain: list[str] | None = None) -> str:
    """The one output path: records as JSON, CSV or plain text.  ``csv_rows``
    (header included) and ``plain`` lines replace the generic CSV and plain
    layouts where a table's golden layout differs."""
    if args.format == "json":
        return _json(records) + "\n"
    if args.format == "csv":
        if csv_rows is None:
            csv_rows = [["command", "parameters", "result", "note"]]
            for rec in records:
                params = ";".join(f"{k}={v}" for k, v in sorted(rec["parameters"].items()))
                csv_rows.append([rec["command"], params, str(rec["result"]), rec["note"]])
        # one empty field is written "", as csv.writer does, since a blank line reads as no row
        lines = [",".join(map(_csv_field, row)) or ('""' if row else "") for row in csv_rows]
        return "".join(line + "\n" for line in lines)
    if plain is None:
        plain = []
        for rec in records:
            result = rec["result"]
            extras = [f"{key}={rec['parameters'][key]}"
                      for key in ("quantity", "exact", "rel_error") if key in rec["parameters"]]
            if rec["note"]:
                extras.append(f"({rec['note']})")
            text = _fmt_float(result) if isinstance(result, float) else str(result)
            plain.append(text + "  " + " ".join(extras) if extras else text)
    return "\n".join(plain) + "\n"


def _write(stream, text: str) -> OSError | None:
    """Writes and flushes ``text``; on an ``OSError`` points the fd of ``stream`` at os.devnull,
    so that the flush that ``run``, or the interpreter at exit, makes again cannot fail a second
    time, and returns the error."""
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        if sys.stdout is None:  # the process started with fd 1 closed
            raise UsageError("cannot write stdout: it is closed")
        if exc := _write(sys.stdout, text):
            raise UsageError(f"cannot write stdout: {exc.strerror}")
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out path {out_path!r}: {exc.strerror}") from None


def _note(line: str) -> None:
    """Writes one ``timing:`` or ``error:`` line on stderr.  A stderr that
    cannot be written (a closed pipe, a full device, a closed fd 2) loses the
    line, never the exit code: there is no other stream to report it on."""
    if sys.stderr is not None:  # None: the process started with fd 2 closed
        _write(sys.stderr, line + "\n")


# -- scalar commands ----------------------------------------------------------


def _cmd_hyperdet(args: SimpleNamespace) -> tuple[str, int]:
    dims = _integers(args.dims, "dims", 0, ",")
    route = hyperdet.route(dims, args.omega)
    note = "dual defective" if route.name == "defective" else ""
    params = {"dims": _join(dims), "omega": str(args.omega)}
    value = _degree(route, args.cap_bytes)
    return _render(args, [_record("hyperdet", params, str(value), note)]), 0


def _cmd_eddeg(args: SimpleNamespace) -> tuple[str, int]:
    dims = _integers(args.dims, "dims", 0, ",")
    weights = (_integers(args.weights, "--weights", 1, ",") if args.weights is not None
               else (1,) * len(dims))
    value = _degree(eddeg.route(dims, weights, args.generic), args.cap_bytes)
    params = {"dims": _join(dims), "weights": _join(weights),
              "metric": "generic" if args.generic else "frobenius"}
    return _render(args, [_record("eddeg", params, str(value))]), 0


# -- tables -------------------------------------------------------------------
# The ED tables read each row from ``stabilization_onset``, which checks it as
# it is printed: a row that fails to stabilize raises ``VerificationError``.


def _base_label(base: tuple[int, ...]) -> str:
    return "x".join(f"P{n}" for n in base)


def _table_table2(args: SimpleNamespace) -> str:
    # every base has sum <= 5 = TABLE2_COLUMNS - 1, so each row reaches its onset
    rows = [[str(v) for _, v in eddeg.stabilization_onset(base, TABLE2_COLUMNS - 1)]
            for base in TABLE2_BASES]
    records = [_record("table", {"name": "table2", "base": _join(base)}, row)
               for base, row in zip(TABLE2_BASES, rows)]
    csv_rows = [["X"] + [f"m={m}" for m in range(TABLE2_COLUMNS)]]
    csv_rows += [[_base_label(base)] + row for base, row in zip(TABLE2_BASES, rows)]
    return _render(args, records, csv_rows, ["".join(f"{c:<7}" for c in row) for row in csv_rows])


def _table_stabilization(args: SimpleNamespace) -> str:
    records = []
    csv_rows = [["base", "m", "ed_degree", "stable_from"]]
    plain = []
    for base in TABLE2_BASES:
        stable_from = sum(base)
        row = [str(v) for _, v in eddeg.stabilization_onset(base, stable_from + 3)]
        records.append(_record("table", {"name": "stabilization", "base": _join(base)}, row,
                               stable_from=stable_from))
        csv_rows += [[_base_label(base), m, v, stable_from] for m, v in enumerate(row)]
        plain.append(f"{_base_label(base)}: {' '.join(row)} (stable from m={stable_from})")
    return _render(args, records, csv_rows, plain)


def _table_dual_example(args: SimpleNamespace) -> str:
    base = polar.chern_data_projective_space_product((1, 1))
    values = [polar.delta0_product_with_hypersurface(base, n, 2) for n in range(6)]
    records = [_record("table", {"name": "dual-example", "n": str(n)}, str(v))
               for n, v in enumerate(values)]
    csv_rows = [["n", "dual_degree"]] + [[n, v] for n, v in enumerate(values)]
    return _render(args, records, csv_rows, [_join(values)])


_TABLES = {
    "table2": _table_table2,
    "stabilization": _table_stabilization,
    "dual-example": _table_dual_example,
}


# -- verification suites ------------------------------------------------------
# Each sweep reports every failure through ``report`` and returns its case count.


def _each_case(check: Callable, cases: Sequence, report: Callable[[str], None]) -> int:
    """Runs ``check`` on every case and reports each ``VerificationError``."""
    for case in cases:
        try:
            check(case)
        except VerificationError as exc:
            report(str(exc))
    return len(cases)


def _verify_identities(max_n: int, report: Callable[[str], None]) -> int:
    return (polar.identity_sweep(max_n, report)
            + polar.stabilization_ratio_check(max_n, max_n, 5, report))


def _verify_rw_constants(max_d: int, report: Callable[[str], None]) -> int:
    return _each_case(asy.verify_minimal_point_constants, range(3, max_d + 1), report)


def _verify_stabilization(max_total: int, report: Callable[[str], None]) -> int:
    return (_each_case(lambda base: eddeg.stabilization_onset(base, sum(base) + 3),
                       list(hyperdet.partition_formats(max_total)), report)
            + polar.stabilization_ratio_check(6, 12, 4, report))


def _segre_class_degrees(dims: tuple[int, ...]) -> list[int]:
    """deg(c_j . h^(m-j)) of P^{n1} x ... x P^{nd} by a route that shares no code with
    ``combinat.multinomial_fold``: x^e in c = prod (1 + x_i)^(n_i+1) leaves (m-j)! / prod
    (n_i-e_i)! against h^(m-j), |e| = j, and 1/(n-e)! = perm(n, e)/n!, so the degrees are
    (m-j)! / prod n_i! times [x^j] prod_i sum_e C(n_i+1, e) perm(n_i, e) x^e."""
    poly = [1]
    for n in dims:
        row = [math.comb(n + 1, e) * math.perm(n, e) for e in range(n + 1)]
        out = [0] * (len(poly) + n)
        for j, a in enumerate(poly):
            for e, b in enumerate(row):
                out[j + e] += a * b
        poly = out
    m, denominator = len(poly) - 1, math.prod(map(math.factorial, dims))
    return [math.factorial(m - j) * v // denominator for j, v in enumerate(poly)]


def _verify_cross_oracle(max_total: int, report: Callable[[str], None]) -> int:
    """The hyperdeterminant degree, a readout of ``combinat.segre_fold``, and the GKZ criterion
    against delta_0 and the dual codimension of class degrees built without that fold."""
    formats = list(hyperdet.partition_formats(max_total))
    for dims in formats:
        series = hyperdet.hyperdet_degree(dims)
        profile = polar.dual_profile(polar.ChernData(sum(dims), _segre_class_degrees(dims)))
        if series != profile.deltas[0]:
            report(f"dual degree mismatch for {dims}: series {series}, polar {profile.deltas[0]}")
        if hyperdet.is_dual_nondefective(dims) != (profile.dual_codim == 1):
            report(f"defectiveness disagreement for {dims}: degree {series}")
    return len(formats)


# suite -> (sweep, default --max, smallest --max that checks at least one case
# of the suite's own sweep, largest --max: no run takes much over a second)
_SUITES = {
    "identities": (_verify_identities, 30, 0, 100),
    "rw-constants": (_verify_rw_constants, 10, 3, 200),
    "stabilization": (_verify_stabilization, 7, 1, 15),
    "cross-oracle": (_verify_cross_oracle, 7, 1, 20),
}


def _cmd_verify(args: SimpleNamespace) -> tuple[str, int]:
    sweep, default_max, least, most = _SUITES[args.suite]
    what = f"--max for {args.suite}"
    max_value = default_max if args.max is None else _integers(args.max, what, least)[0]
    if max_value > most:
        raise UsageError(f"{what} must be at most {most}, got {show_int(max_value)}")
    failed: list[str] = []
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


def _estimate_value(log_estimate: float) -> float | str:
    """An estimate to 12 significant digits, or the text ``inf`` where it overflows
    a double: ``math.exp`` raises, or the log is ``inf`` or (``inf - inf``) ``nan``."""
    try:
        value = math.exp(log_estimate)
    except OverflowError:
        return "inf"
    return _round12(value) if math.isfinite(value) else "inf"


def _ratio_value(value: float, d: int,
                 log10: "Callable[[type[Decimal]], Decimal]") -> float | str:
    """A positive ratio to 12 significant digits.  Below the normal doubles a
    float holds fewer digits (none at 0), so there they are correctly rounded
    from ``log10(decimal.Decimal)``, the base-10 logarithm of the exact form,
    whose integer part has at most as many digits as ``d``; 30 more are kept.
    Such a value is text, as an overflowed estimate's ``inf`` is."""
    if value >= sys.float_info.min:
        return _round12(value)
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = len(str(d)) + 30
        log = log10(decimal.Decimal)
        exponent = math.floor(log)
        mantissa = (10 ** (log - exponent)).quantize(decimal.Decimal("1e-11"))
    if mantissa == 10:  # rounded up to the next power of ten
        mantissa, exponent = decimal.Decimal(1), exponent + 1
    return f"{mantissa.normalize()}e{exponent:+03d}"


def _log10_quotient(dec: "type[Decimal]", num: int, den: int) -> "Decimal":
    """log10(num / den) for 0 < num < den, read from the integer quotient of
    about 40 digits that a power of ten times num / den gives: converting the
    integers themselves to decimal takes time quadratic in their length."""
    k = (den.bit_length() - num.bit_length()) * 30103 // 100000 + 40
    return dec(num * 10 ** k // den).log10() - k


# the keys of ``asy.FORMULAS``, in order, spelled out: reading that dict at import would load
# ``asympt`` into every process
_GRID_FORMULAS = ("hyperdet", "ed", "sv")
# formula -> the argument after d: a grid of n values, the weight or none; d, the weight and
# --omega have no argv minimum: the formula's route or estimate, or --omega's rule, refuses them
_ASYMPT_ARGS = {**dict.fromkeys(_GRID_FORMULAS, "a grid of n values"),
                "binary": None, "discriminant": "the weight"}


def _cmd_asympt(args: SimpleNamespace) -> tuple[str, int]:
    formula = args.formula
    if args.omega is not None and formula != "sv":
        raise UsageError(f"--omega applies only to the sv formula, not {formula!r}")
    omega = 1 if args.omega is None else args.omega
    after_d, d = _ASYMPT_ARGS[formula], args.d
    if after_d is None and args.grid is not None:
        raise UsageError(f"{formula} estimates take no grid, got {args.grid!r}")
    if after_d is not None and args.grid is None:
        raise UsageError(f"formula {formula!r} needs {after_d} after d")
    if formula in _GRID_FORMULAS:
        grid = _parse_grid(args.grid)
        # the route's peak and the estimate grow with n: the largest point stands for all; the
        # route refuses a bad d, or a d or n too large for a float estimate, before any charge
        top = grid[-1] if isinstance(grid, range) else max(grid)
        route = asy.FORMULAS[formula][0](d, top, omega)
        # 4 kB of frames and 4 kB a point, whose record and JSON text take under 3 kB (tracemalloc)
        _check_cap(args.cap_bytes, f"a grid of {len(grid)} points", 4096 * (len(grid) + 1))
        if args.compare:
            _check_cap(args.cap_bytes, *route.peak)
        points = asy.convergence_sweep(formula, d, grid, omega, args.compare)
        records = []
        for point in points:
            params = {"formula": formula, "d": str(d), "n": str(point.grid_value)}
            if formula == "sv":
                params["omega"] = str(omega)
            if args.compare:
                params["exact"] = str(point.exact)
                params["rel_error"] = _fmt_float(point.rel_error)
            records.append(_record("asympt", params, _estimate_value(point.log_estimate)))
        return _render(args, records), 0
    if args.compare:
        raise UsageError(f"--compare applies only to {', '.join(_GRID_FORMULAS)}, "
                         f"not {formula!r}")
    if formula == "binary":
        est = asy.binary_asymptotics(d)
        base = {"formula": "binary", "d": str(d)}
        quantities = [
            ("hyperdet", _estimate_value(est.log_hyperdet)),
            ("ed-frobenius", _estimate_value(est.log_ed_frobenius)),
            ("ed-generic", _estimate_value(est.log_ed_generic)),
            ("hyperdet/ed-frobenius", _round12(est.ratio_frobenius)),
            # 2^(d+1) e - 1 is 2^(d+1) e to 300 digits wherever the ratio is not a normal double
            ("hyperdet/ed-generic", _ratio_value(
                est.ratio_generic, d,
                lambda dec: (dec(d + 3) / dec(1).exp()).log10() - (d + 1) * dec(2).log10())),
        ]
    else:
        omega = _integers(args.grid, "omega", None)[0]
        quotients = _degree(asy.discriminant_route(d, omega), args.cap_bytes)
        base = {"formula": "discriminant", "n": str(d), "omega": str(omega)}
        names = ("ratio-to-ed/large-n-form", "ratio-to-ed/large-weight-form",
                 "ratio-to-generic-ed/large-weight-form")
        # each pair is one true division of integers: correctly rounded, like float(Fraction)
        quantities = [(name, _ratio_value(num / den, d, lambda dec: _log10_quotient(dec, num, den)))
                      for name, (num, den) in zip(names, quotients)]
    records = [_record("asympt", dict(base, quantity=q), value) for q, value in quantities]
    return _render(args, records), 0


# -- command line grammar -----------------------------------------------------
# ``_COMMANDS`` is the whole grammar: ``parse_args`` walks argv against it and
# ``--help`` prints it.  Every argument is (name, takes, default, help): an
# option if its name starts with ``-``, else a positional, which must be given
# if its default is _REQUIRED (only the last may be left out).  ``takes`` is
# what ``_value`` reads: _FLAG nothing, _TEXT any text, a tuple of choices, an
# integer, the least value ``_integers`` accepts, or None for any integer.

_FLAG, _TEXT, _REQUIRED = "flag", "text", "required"
_HELP = ("--help", _FLAG, False, "show this help and exit")
_COMMON_OPTIONS = (
    ("--format", ("plain", "csv", "json"), "plain", "output format"),
    ("--out", _TEXT, None, "write output to a file instead of stdout"),
    ("--jobs", 1, 1, "no effect, tables fill in process; kept for scripts that pass it"),
    ("--cap-bytes", 1, DEFAULT_CAP_BYTES,
     "byte budget of an exact value or an asympt grid; over it exits 3"),
    ("--timing", _FLAG, False, "write the elapsed milliseconds on stderr; stdout is unchanged"),
)


def _cmd_table(args: SimpleNamespace) -> tuple[str, int]:
    return _TABLES[args.name](args), 0


# command -> (help, run, arguments besides help and the common options)
_COMMANDS = {
    "hyperdet": ("degree of the dual hypersurface of a format", _cmd_hyperdet,
                 (("dims", _TEXT, _REQUIRED, "comma-separated factor dimensions, e.g. 1,1,2"),
                  ("--omega", 1, 1, "Veronese weight of every factor"))),
    "eddeg": ("ED degree of a format", _cmd_eddeg,
              (("dims", _TEXT, _REQUIRED, "comma-separated factor dimensions"),
               ("--generic", _FLAG, False, "generic metric instead of Frobenius"),
               ("--weights", _TEXT, None, "comma-separated Veronese weights"))),
    "table": ("emit a frozen table", _cmd_table,
              (("name", tuple(_TABLES), _REQUIRED, "the table"),)),
    "verify": ("run an exhaustive verification suite", _cmd_verify,
               (("suite", tuple(_SUITES), _REQUIRED, "the suite"),
                ("--max", _TEXT, None, "sweep bound (suite-specific default and range)"))),
    "asympt": ("growth estimates, optionally against exact values", _cmd_asympt,
               (("formula", tuple(_ASYMPT_ARGS), _REQUIRED, "the estimate"),
                ("d", None, _REQUIRED, "factor count (n for the discriminant ratios)"),
                ("grid", _TEXT, None,
                 "n value, range a:b[:step], or comma list (weight for discriminant)"),
                ("--omega", None, None,
                 "weight for the sv formula (default 1); a usage error with any other"),
                ("--compare", _FLAG, False,
                 "include exact values and rel. errors (hyperdet, ed, sv)"))),
}


def _is_option(token: str) -> bool:
    """``-x`` and ``--x`` are options; ``-`` and a negative number such as
    ``-2`` are values, which the command or ``_integers`` then judges."""
    return token[:1] == "-" and token[1:2] not in "0123456789"


def _arguments(command: str | None) -> tuple[list[tuple], list[tuple]]:
    """The positionals and options of ``command`` (of the program for None), help first."""
    arguments = (_HELP, *_COMMANDS[command][2], *_COMMON_OPTIONS) if command else (_HELP,)
    return ([spec for spec in arguments if not _is_option(spec[0])],
            [spec for spec in arguments if _is_option(spec[0])])


def _dest(name: str) -> str:
    """The attribute that holds an argument's value: ``--cap-bytes`` -> ``cap_bytes``."""
    return name.lstrip("-").replace("-", "_")


def _value(name: str, takes: object, text: str) -> object:
    """The one reader of values: ``text`` as ``takes`` reads it, a choice of a
    tuple, any text, or an integer of at least ``takes`` (any integer for None)."""
    if isinstance(takes, tuple):
        if text not in takes:
            raise UsageError(f"{name} must be one of {', '.join(takes)}, got {text!r}")
        return text
    return text if takes == _TEXT else _integers(text, name, takes)[0]


def _find_option(typed: str, options: Sequence[tuple]) -> tuple:
    """The option that ``typed`` names, exactly or as the unique prefix of a
    long name; ``-h`` is ``--help``."""
    typed = "--help" if typed == "-h" else typed
    prefix = typed[:2] == "--" and len(typed) > 2  # a bare ``--`` is a prefix of no option
    matches = ([spec for spec in options if spec[0] == typed]
               or [spec for spec in options if prefix and spec[0].startswith(typed)])
    if len(matches) != 1:
        raise UsageError(f"option {typed} is ambiguous: it could be "
                         f"{', '.join(spec[0] for spec in matches)}" if matches
                         else f"unknown option {typed}")
    return matches[0]


def _unlimited(function: Callable, argv: Sequence[str]) -> object:
    """``function(argv)`` with the int <-> str digit limit (4300 by default since Python 3.10.7 and
    3.11) lifted, then the caller's restored: argv integers and exact values outgrow it."""
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is None:  # Python 3.10.0-3.10.6 have no limit
        return function(argv)
    sys.set_int_max_str_digits(0)
    try:
        return function(argv)
    finally:
        sys.set_int_max_str_digits(digit_limit)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Reads argv against ``_COMMANDS``: the command, then its options and
    positionals in any order.  A value follows its option as the next token or
    after ``=``; a long option may be shortened to a unique prefix; the last of
    a repeated option wins; every token after ``--`` is a positional.  Returns
    the command's ``run`` and one attribute per argument, or for ``-h`` or
    ``--help``, as soon as it is read, a request whose ``run`` gives the usage.
    Anything else is a ``UsageError``.  Integers of any length are read."""
    return _unlimited(_parse_args, argv)


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    if not argv:
        raise UsageError(f"a command is required: one of {', '.join(_COMMANDS)}")
    # argv that starts with an option has no command, and that option must ask for help
    command = None if _is_option(argv[0]) else _value("the command", tuple(_COMMANDS), argv[0])
    positionals, options = _arguments(command)
    values = {_dest(name): default for name, _, default, _ in (*positionals, *options)}
    given: list[str] = []
    rest = iter(argv[1:] if command else argv)
    for token in rest:
        if token == "--" and command:  # without a command ``--`` is an unknown option
            given.extend(rest)  # drains ``rest``, so the loop ends here
        elif _is_option(token):
            typed, eq, text = token.partition("=")
            name, takes = _find_option(typed, options)[:2]
            if takes != _FLAG:
                if not eq:
                    text = next(rest, None)
                    if text is None or _is_option(text):
                        raise UsageError(f"{name} needs a value")
                values[_dest(name)] = _value(name, takes, text)
            elif eq:
                raise UsageError(f"{name} takes no value, got {token!r}")
            elif name == "--help":
                return SimpleNamespace(command=command, run=lambda args: (_usage(command), 0),
                                       out=None, timing=False)
            else:
                values[_dest(name)] = True
        else:
            given.append(token)
    if len(given) > len(positionals):
        raise UsageError(f"unexpected argument {given[len(positionals)]!r}")
    for (name, takes, _, _), text in zip(positionals, given):
        values[name] = _value(name, takes, text)
    for name, _, default, _ in positionals[len(given):]:
        if default == _REQUIRED:
            raise UsageError(f"the argument {name} is required")
    return SimpleNamespace(command=command, run=_COMMANDS[command][1], **values)


def _usage(command: str | None) -> str:
    """The ``--help`` text of ``command``, or of the program for None, written
    from the same argument tuples that ``parse_args`` reads."""
    positionals, options = _arguments(command)
    if command is None:
        head = f"{{{','.join(_COMMANDS)}}} ..."
        about = ("Exact degrees and ED degrees of products of projective spaces, "
                 "their dual hypersurfaces, and growth estimates.")
        sections = [("commands", [(name, spec[0]) for name, spec in _COMMANDS.items()])]
    else:
        about = _COMMANDS[command][0]
        head = " ".join([command, "[options]"] + [name if default == _REQUIRED else f"[{name}]"
                                                  for name, _, default, _ in positionals])
        sections = [("positional arguments",
                     [(name, f"{text} (one of {', '.join(takes)})" if isinstance(takes, tuple)
                       else text) for name, takes, _, text in positionals])]
    rows = []
    for name, takes, _, text in options:
        if name == "--help":
            name = "-h, --help"
        elif isinstance(takes, tuple):
            name += f" {{{','.join(takes)}}}"
        elif takes != _FLAG:
            name += " " + _dest(name).upper()
        rows.append((name, text))
    sections.append(("options", rows))
    width = max(len(left) for _, rows in sections for left, _ in rows) + 2
    lines = [f"usage: segre-degrees {head}", "", about]
    for title, rows in sections:
        lines += ["", f"{title}:", *(f"  {left:<{width}}{right}" for left, right in rows)]
    return "\n".join(lines) + "\n"


_EXIT_CODES = {UsageError: 2, VerificationError: 1, CapBudgetError: 3, MemoryError: 3}


def main(argv: Sequence[str] | None = None) -> int:
    return _unlimited(_answer, sys.argv[1:] if argv is None else argv)


def _answer(argv: Sequence[str]) -> int:
    """Runs one request and writes its output; returns its exit code."""
    try:
        args = parse_args(argv)
        start = time.perf_counter()
        text, code = args.run(args)
        run_ms = (time.perf_counter() - start) * 1000.0
        _emit(text, args.out)
        if args.timing:
            _note(f"timing: {args.command} {run_ms:.3f} ms")
    except tuple(_EXIT_CODES) as exc:
        _note("error: memory ran out" if isinstance(exc, MemoryError) else f"error: {exc}")
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    return code


def run() -> int:
    """The process entry point, for ``python -m segre_degrees.cli`` and the
    ``segre-degrees`` script: ``main``, the ``atexit`` callbacks, a flush of stdout and stderr,
    then ``os._exit``, which skips the interpreter's teardown of every module and object.  An
    exception out of ``main`` takes the normal path, a traceback and exit 1.  ``main`` never
    exits: tests and library callers run it many times in one process."""
    code = main()
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: that fd was closed at start
        try:
            stream.flush()
        except OSError:  # as in ``_note``: the bytes are lost, not the exit code
            pass
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
