"""Pin the expected exit code and stdout of every catalog case.

Usage:  python3 perfbench/pin.py

Runs each case of ``catalog.py`` through the CLI once and writes
``pins.json``.  Before a pin is written, every exact integer the case
prints is recomputed by a route that does not share the CLI's code path,
and the pin is refused on a mismatch.  The check is positional: the value
cells of the output (``exact_cells``: no header, row label, parameter or
index column) must equal the route's values, in order.  The routes:

- ``polar-delta0``: delta_0 of the Segre product from its polar classes
  (``polar.dual_profile``), for hyperdeterminant degrees.
- ``weighted-polar``: polar classes of a Segre-Veronese product, from Chern
  degrees computed here with the hyperplane class sum w_i x_i; delta_0 for
  ``--omega``, the sum of all polar classes for generic ED degrees.
- ``binary-closed-form``: ``binary_hyperdet_degree`` / ``binary_generic_ed_degree``
  and d! for products of lines.
- ``boundary-closed-form``: (n1+1)!/prod_{j>=2} n_j! when n1 = n2+...+nd.
- ``geometric-sum``: sum_{k<=n} (w-1)^k, the closed form behind
  ``veronese_frobenius_ed_degree``, for single Veronese factors.
- ``fo-dp``: the Friedland-Ottaviani coefficient by a direct dynamic
  programme over exponent vectors, for Frobenius ED degrees.
- ``whitney-product``: delta_0 of (P1 x P1) x Q_n from ``chern_data_product``.
- ``count-formula``: closed-form case counts of the verify suites.
- ``exit-contract``: documented exit code of a refusal (2 usage, 3 cap).
Float estimates have no route; their bytes are pinned as printed.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from itertools import product
from math import comb, factorial
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
import harness  # noqa: E402

sys.path.insert(0, str(harness.SRC))

from segre_degrees.eddeg import binary_generic_ed_degree  # noqa: E402
from segre_degrees.hyperdet import binary_hyperdet_degree  # noqa: E402
from segre_degrees.polar import (  # noqa: E402
    ChernData,
    chern_data_product,
    chern_data_projective_space_product,
    chern_data_smooth_hypersurface,
    dual_profile,
)

# -- independent routes -------------------------------------------------------


def weighted_polar_classes(dims: Sequence[int], weights: Sequence[int]) -> Tuple[int, ...]:
    """Polar classes of P^{n1} x ... x P^{nd} embedded by O(w1,...,wd).

    c(T) = prod (1+x_i)^(n_i+1); deg(c_j . h^(m-j)) pairs each monomial x^e
    of degree j against h^(m-j) = (sum w_i x_i)^(m-j), which leaves the
    multinomial of the complement times prod w_i^(n_i - e_i).
    """
    m = sum(dims)
    degrees = [0] * (m + 1)
    for e in product(*(range(n + 1) for n in dims)):
        coeff = 1
        rest = []
        for n, ei in zip(dims, e):
            coeff *= comb(n + 1, ei)
            rest.append(n - ei)
        pairing = factorial(sum(rest))
        for r, w in zip(rest, weights):
            pairing = pairing // factorial(r) * w ** r
        degrees[sum(e)] += coeff * pairing
    return dual_profile(ChernData(dim=m, class_degrees=tuple(degrees))).deltas


def fo_dp(dims: Sequence[int]) -> int:
    """[h^n] prod_i sum_{k<=n_i} hhat_i^k h_i^(n_i-k), hhat_i = sum_{j!=i} h_j,
    by distributing each power of hhat_i over the other variables."""
    d = len(dims)
    state: Dict[Tuple[int, ...], int] = {(0,) * d: 1}
    for i, n in enumerate(dims):
        others = [j for j in range(d) if j != i]
        nxt: Dict[Tuple[int, ...], int] = {}

        def spread(idx: int, left: int, cur: List[int], coeff: int) -> None:
            if idx == len(others):
                if left == 0:
                    key = tuple(cur)
                    nxt[key] = nxt.get(key, 0) + coeff
                return
            j = others[idx]
            for a in range(min(left, dims[j] - cur[j]) + 1):
                cur[j] += a
                spread(idx + 1, left - a, cur, coeff * comb(left, a))
                cur[j] -= a

        for exp, coeff in state.items():
            for k in range(n + 1):
                cur = list(exp)
                cur[i] += n - k
                if cur[i] <= dims[i]:
                    spread(0, k, cur, coeff)
        state = nxt
    return state.get(tuple(dims), 0)


def partition_count(total: int) -> int:
    """Number of non-decreasing tuples of positive integers with sum <= total."""
    ways = [1] + [0] * total
    for part in range(1, total + 1):
        for s in range(part, total + 1):
            ways[s] += ways[s - part]
    return sum(ways[1:])


def ratio_check_count(m_max: int, n_max: int, d_max: int) -> int:
    return sum((d_max - 1) * max(0, n_max - m) * (m + 1) for m in range(m_max + 1))


def verify_checked(suite: str, top: int) -> int:
    if suite == "identities":
        per_n = sum((n + 1) * (n + 2) // 2 + (n + 1) + n for n in range(top + 1))
        return per_n + ratio_check_count(top, top, 5)
    if suite == "rw-constants":
        return max(0, top - 2)
    if suite == "stabilization":
        return partition_count(top) + ratio_check_count(6, 12, 4)
    if suite == "cross-oracle":
        return partition_count(top)
    raise ValueError(suite)


def hyperdet_routes(dims: Tuple[int, ...], omega: int) -> Tuple[List[str], int]:
    if omega != 1:
        return ["weighted-polar"], weighted_polar_classes(dims, (omega,) * len(dims))[0]
    value = dual_profile(chern_data_projective_space_product(dims)).deltas[0]
    routes = ["polar-delta0"]
    if all(n == 1 for n in dims):
        routes.append("binary-closed-form")
        _agree(value, binary_hyperdet_degree(len(dims)), dims)
    n1 = max(dims)
    if len(dims) > 1 and 2 * n1 == sum(dims):
        rest = list(dims)
        rest.remove(n1)
        closed = factorial(n1 + 1)
        for n in rest:
            closed //= factorial(n)
        routes.append("boundary-closed-form")
        _agree(value, closed, dims)
    return routes, value


def frobenius_routes(dims: Tuple[int, ...]) -> Tuple[List[str], int]:
    value = fo_dp(dims)
    routes = ["fo-dp"]
    if len(dims) > 1 and all(n == 1 for n in dims):
        routes.append("binary-closed-form")
        _agree(value, factorial(len(dims)), dims)
    return routes, value


def _agree(a: int, b: int, what: object) -> None:
    if a != b:
        raise SystemExit(f"routes disagree on {what}: {a} vs {b}")


def _opt(argv: List[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _ints(text: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def expected(command: str) -> Tuple[int, List[str], List[int]]:
    """(exit code, routes, exact integers in output order) for one case."""
    argv = command.split()
    head = argv[0]
    if "--cap-bytes" in argv:
        return 3, ["exit-contract"], []
    if head == "hyperdet":
        try:
            dims = _ints(argv[1])
        except ValueError:
            return 2, ["exit-contract"], []
        if any(n < 0 for n in dims):
            return 2, ["exit-contract"], []
        routes, value = hyperdet_routes(dims, int(_opt(argv, "--omega", "1")))
        return 0, routes, [value]
    if head == "eddeg":
        dims = _ints(argv[1])
        weights = _ints(_opt(argv, "--weights")) if "--weights" in argv else (1,) * len(dims)
        if len(weights) != len(dims):
            return 2, ["exit-contract"], []
        if "--generic" in argv:
            value = sum(weighted_polar_classes(dims, weights))
            routes = ["weighted-polar"]
            if all(n == 1 for n in dims) and all(w == 1 for w in weights):
                routes.append("binary-closed-form")
                _agree(value, binary_generic_ed_degree(len(dims)), dims)
            return 0, routes, [value]
        if all(w == 1 for w in weights):
            routes, value = frobenius_routes(dims)
            return 0, routes, [value]
        (n,), (w,) = dims, weights
        return 0, ["geometric-sum"], [sum((w - 1) ** k for k in range(n + 1))]
    if head == "table":
        name = argv[1]
        if name == "table2":
            bases = ((1, 1), (1, 2), (2, 2), (2, 3))
            return 0, ["fo-dp"], [fo_dp(b + (m,)) for b in bases for m in range(6)]
        if name == "stabilization":
            bases = ((1, 1), (1, 2), (2, 2), (2, 3))
            values = []
            for b in bases:
                row = [fo_dp(b + (m,)) for m in range(sum(b) + 4)]
                stable = min(m for m in range(len(row)) if len(set(row[m:])) == 1)
                values.extend(row + [stable])
            return 0, ["fo-dp"], values
        if name == "dual-example":
            base = chern_data_projective_space_product((1, 1))
            values = [dual_profile(chern_data_product(base, chern_data_smooth_hypersurface(n, 2))).deltas[0]
                      for n in range(6)]
            return 0, ["whitney-product"], values
        return 2, ["exit-contract"], []
    if head == "verify":
        suite, top = argv[1], int(_opt(argv, "--max"))
        return 0, ["count-formula"], [verify_checked(suite, top), 0, top]
    if head == "asympt":
        formula, d = argv[1], int(argv[2])
        if formula in ("hyperdet", "ed", "sv") and d < 3:
            return 2, ["exit-contract"], []
        if "--compare" not in argv:
            return 0, [], []
        values = []
        for n in _grid(argv[3]):
            dims = (n,) * d
            if formula == "hyperdet":
                values.append(hyperdet_routes(dims, 1)[1])
            elif formula == "ed":
                values.append(fo_dp(dims))
            else:
                values.append(weighted_polar_classes(dims, (int(_opt(argv, "--omega")),) * d)[0])
        routes = {"hyperdet": "polar-delta0", "ed": "fo-dp", "sv": "weighted-polar"}[formula]
        return 0, [routes], values
    raise SystemExit(f"no route for {command!r}")


def _grid(text: str) -> range:
    lo, hi, step = (int(p) for p in text.split(":"))
    return range(lo, hi + 1, step)


_VERIFY_FIELDS = re.compile(r"checked=(\d+), failures=(\d+), max=(\d+)")
_STABLE_ROW = re.compile(r"\S+: ([\d ]+) \(stable from m=(\d+)\)")
_WHOLE = re.compile(r"\d+")


def _whole(value: object) -> int | None:
    """A JSON or CSV cell as an exact integer, or None for floats and text."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _WHOLE.fullmatch(value):
        return int(value)
    return None


def _json_cells(records: List[dict]) -> List[int]:
    cells = []
    for record in records:
        result = record["result"]
        for value in result if isinstance(result, list) else [result]:
            if (whole := _whole(value)) is not None:
                cells.append(whole)
        if "stable_from" in record:
            cells.append(record["stable_from"])
    return cells


def _csv_cells(rows: List[List[str]]) -> List[int]:
    header, body = rows[0], rows[1:]
    if "stable_from" in header:  # one row per (base, m); stable_from repeats per base
        base, degree, stable = (header.index(k) for k in ("base", "ed_degree", "stable_from"))
        cells = []
        for label in dict.fromkeys(row[base] for row in body):
            group = [row for row in body if row[base] == label]
            cells.extend(int(row[degree]) for row in group)
            cells.extend(sorted({int(row[stable]) for row in group}))
        return cells
    columns = [i for i, name in enumerate(header)
               if name in ("result", "dual_degree") or name.startswith("m=")]
    return [whole for row in body for i in columns if (whole := _whole(row[i])) is not None]


def _plain_cells(argv: List[str], lines: List[str]) -> List[int]:
    head = argv[0]
    if head in ("hyperdet", "eddeg"):
        return [int(line) for line in lines]
    if head == "verify":
        return [int(x) for line in lines for x in _VERIFY_FIELDS.search(line).groups()]
    if head == "asympt":  # estimates are floats; --compare adds exact=N per line
        return [int(x) for line in lines for x in re.findall(r"\bexact=(\d+)", line)]
    name = argv[1]
    if name == "table2":  # header line, then a row label and one cell per m
        return [int(tok) for line in lines[1:] for tok in line.split()[1:]]
    if name == "stabilization":
        cells = []
        for line in lines:
            row, stable = _STABLE_ROW.fullmatch(line).groups()
            cells.extend(int(tok) for tok in row.split())
            cells.append(int(stable))
        return cells
    if name == "dual-example":
        return [int(tok) for line in lines for tok in line.split(",")]
    raise SystemExit(f"no cell layout for {' '.join(argv)!r}")


def exact_cells(command: str, stdout: str) -> List[int]:
    """The exact integers of a CLI output, by position: value cells only,
    never a header, a row label, a parameter or an index column.  The order
    is that of ``expected``; a table's ``stable_from`` follows its row."""
    if not stdout:
        return []
    argv = command.split()
    fmt = _opt(argv, "--format", "plain")
    if fmt == "json":
        return _json_cells(json.loads(stdout))
    if fmt == "csv":
        return _csv_cells(list(csv.reader(io.StringIO(stdout))))
    return _plain_cells(argv, stdout.splitlines())


def main() -> int:
    pins = {}
    with harness.Spawner(harness.child_env()) as spawner:
        results = {command: spawner.cli(command) for command in catalog.all_members()}
    for command, result in results.items():
        exit_code, routes, values = expected(command)
        stdout = result.stdout.decode()
        if result.exit_code != exit_code:
            raise SystemExit(f"{command!r}: exit {result.exit_code}, expected {exit_code}")
        if exit_code != 0 and stdout:
            raise SystemExit(f"{command!r}: refusal printed to stdout")
        if exact_cells(command, stdout) != values:
            raise SystemExit(f"{command!r}: output {stdout!r} disagrees with {routes} values {values}")
        pins[command] = {"exit": exit_code, "stdout": stdout, "routes": routes}
        print(f"{command:<48} exit={exit_code} routes={','.join(routes) or '-'}")
    with open(harness.PINS_PATH, "w") as fh:
        json.dump({"cases": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} cases in {harness.PINS_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
