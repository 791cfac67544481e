from __future__ import annotations

import ast
import functools
import importlib
import inspect
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, floor, log10
from pathlib import Path

import pytest

import segre_degrees
from segre_degrees import asympt, cli, combinat
from segre_degrees.combinat import as_format, binomial, binomial_row, multinomial
from segre_degrees.eddeg import (frobenius_ed_degree, generic_ed_degree, stabilization_onset,
                                 veronese_frobenius_ed_degree)
from segre_degrees.hyperdet import hyperdet_degree, sv_hyperdet_degree
from segre_degrees.polar import (ChernData, alpha_coefficients, chern_data_projective_space_product,
                                 chern_data_smooth_hypersurface, delta0_product_with_hypersurface)


def test_binomial_standard_and_convention():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(4, -1) == 0
    assert binomial(4, 5) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_row_is_the_row_of_math_comb():
    for a in [*range(301), 1000, 5000]:
        assert binomial_row(a) == [comb(a, k) for k in range(a + 1)], a


def test_binomial_row_refuses_a_negative_upper_index():
    with pytest.raises(ValueError):
        binomial_row(-1)


def test_multinomial_small_and_oracle():
    assert multinomial((1, 1)) == 2
    assert multinomial((1, 1, 1)) == 6
    # direct factorial evaluation as the oracle
    assert multinomial((2, 3)) == factorial(5) // (factorial(2) * factorial(3)) == 10
    assert multinomial(()) == 1
    assert multinomial((0, 4)) == 1
    with pytest.raises(ValueError):
        multinomial((2, -1))


@pytest.mark.parametrize("call", [
    lambda: frobenius_ed_degree((1.9, 1, 1)),
    lambda: hyperdet_degree(("1", 1, 1)),
    lambda: sv_hyperdet_degree((1, Fraction(3, 2), 1), 2),
    lambda: generic_ed_degree((1, 3), (1.7, 1)),
    lambda: generic_ed_degree((1.0, 3)),
    lambda: stabilization_onset((1.5,), 3),
    lambda: chern_data_projective_space_product((2.0,)),
    lambda: ChernData(1, (1, 2.9)),
    lambda: ChernData(1.0, (1, 2)),
], ids=["frobenius-float", "hyperdet-str", "sv-fraction", "generic-float-weight",
        "generic-float-dim", "onset-float-base", "chern-float-dim", "chern-float-degree",
        "chern-data-float-dim"])
def test_non_integer_formats_raise_instead_of_truncating(call):
    """A float, ``Fraction`` or ``str`` entry is refused, not rounded down to
    the answer for a neighbouring format."""
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call", [
    lambda: sv_hyperdet_degree((1, 1, 1), 1.5),
    lambda: alpha_coefficients(2, 1, 2.5),
    lambda: delta0_product_with_hypersurface(chern_data_projective_space_product((1,)), 2, 2.5),
    lambda: chern_data_smooth_hypersurface(2, 2.5),
    lambda: veronese_frobenius_ed_degree(2, 3.5),
    lambda: veronese_frobenius_ed_degree(2.0, 3),
    lambda: asympt.log_ed_asymptotic(3.5, 2),
    lambda: asympt.log_ed_asymptotic(3, 2.5),
    lambda: asympt.log_sv_hyperdet_asymptotic(3, 2, 1.5),
    lambda: asympt.log_hyperdet_asymptotic(3.0, 2),
    lambda: asympt.convergence_sweep("ed", 3, [2.5], compare=False),
    lambda: asympt.binary_asymptotics(2.5),
], ids=["sv-float-weight", "alpha-float-degree", "delta0-float-degree",
        "hypersurface-float-degree", "veronese-float-weight", "veronese-float-dim",
        "ed-estimate-float-d", "ed-estimate-float-n", "sv-estimate-float-weight",
        "hyperdet-estimate-float-d", "sweep-float-grid", "binary-float-d"])
def test_non_integer_scalars_raise_type_error(call):
    """A float weight, degree or dimension is a type error, not a float
    answer from an exact function or an estimate, or a failed verification."""
    with pytest.raises(TypeError):
        call()


def test_formats_refuse_empty_and_negative_entries():
    assert as_format(range(3)) == (0, 1, 2)
    for kernel in (frobenius_ed_degree, hyperdet_degree, generic_ed_degree,
                   chern_data_projective_space_product, lambda dims: stabilization_onset(dims, 3)):
        with pytest.raises(ValueError, match=re.escape("invalid dimensions ()")):
            kernel(())
        with pytest.raises(ValueError, match="^each dimension must be at least 0, got -1$"):
            kernel((1, -1))


def test_verification_error_lives_in_combinat_and_is_reexported():
    assert asympt.VerificationError is combinat.VerificationError


def test_usage_error_lives_in_combinat_and_is_a_value_error():
    """The command line reports the library's refusals as its own usage errors, and a library
    caller that catches ``ValueError`` still catches them."""
    assert cli.UsageError is combinat.UsageError
    assert issubclass(combinat.UsageError, ValueError)


def test_no_module_raises_a_bare_value_error():
    """Every refusal of the package is a ``UsageError``, so a bare ``ValueError`` out of it is a
    bug, which the command line does not catch; the test ring aside."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(segre_degrees.__file__).parent.glob("*.py"))
             if path.stem != "truncpoly"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _raised_name(node) == "ValueError"]
    assert found == []


def test_no_assert_statements_in_the_package():
    """Invariants must raise: ``python -O`` strips ``assert``."""
    found = []
    for path in sorted(Path(segre_degrees.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


_MODULES = ["segre_degrees", *(f"segre_degrees.{path.stem}" for path in
                                sorted(Path(segre_degrees.__file__).parent.glob("*.py"))
                                if path.stem != "__init__")]


@pytest.mark.parametrize("name", _MODULES)
def test_all_lists_every_public_definition_and_nothing_stale(name):
    """``from module import *`` works, so every ``__all__`` entry resolves,
    and it exports every public function, class and named tuple the module
    defines."""
    module = importlib.import_module(name)
    exec(f"from {name} import *", {})
    defined = {key for key, value in vars(module).items()
               if not key.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == name}
    assert defined - set(module.__all__) == set()


def test_the_package_star_import_binds_exactly_its_exports():
    namespace = {}
    exec("from segre_degrees import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(segre_degrees.__all__)


@pytest.mark.parametrize("name", segre_degrees.__all__)
def test_each_export_is_the_function_of_its_submodule(name):
    """The package reads each exported name from its submodule (PEP 562 ``__getattr__``), so
    the two are one object, and a patch of the submodule shows through the package."""
    owners = [module for module in (segre_degrees.eddeg, segre_degrees.hyperdet,
                                    segre_degrees.polar) if name in module.__all__]
    assert len(owners) == 1
    assert getattr(segre_degrees, name) is getattr(owners[0], name)


def test_an_unknown_package_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'segre_degrees' has no attribute 'nope'$"):
        segre_degrees.nope


def _imported_modules():
    """(file name, dotted names) of every import in the package, top-level or
    nested in a function."""
    for path in sorted(Path(segre_degrees.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                yield path.name, [node.module or ""] + [f"{node.module or ''}.{a.name}"
                                                        for a in node.names]
            elif isinstance(node, ast.Import):
                yield path.name, [a.name for a in node.names]


def test_only_the_package_imports_the_ring():
    """The truncated ring is a test oracle and is on no production path: no module imports it,
    and only the package ``__init__`` names it, in its lazy registration, so that the benchmark
    tracer finds it in ``sys.modules`` and can patch it."""
    named = []
    for path in sorted(Path(segre_degrees.__file__).parent.glob("*.py")):
        if path.stem == "truncpoly":
            continue
        tree = ast.parse(path.read_text(), str(path))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                      and ast.get_docstring(node) is not None}
        named += [(path.name, node) for node in ast.walk(tree)
                  if id(node) not in docstrings and "truncpoly" in _spelled(node)]
    assert [(name, type(node).__name__) for name, node in named] == [("__init__.py", "Constant")]
    (registration,) = [node for node in ast.parse(Path(segre_degrees.__file__).read_text()).body
                       if isinstance(node, ast.For)]
    assert named[0][1].value in ast.literal_eval(registration.iter)


def test_no_module_imports_future_or_a_serializer():
    """``cli._render`` writes JSON and CSV itself, and every annotation is evaluated where its
    function is defined, so no module, at the top level or in a function, imports ``__future__``,
    ``json``, ``csv`` or their C parts: each would load in every process, or every formatted
    one."""
    banned = {"__future__", "json", "csv", "_json", "_csv"}
    assert [(name, m) for name, modules in _imported_modules() for m in modules
            if m.split(".")[0] in banned] == []


def _spelled(node):
    """The text a name, an attribute, an import or a string constant spells, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.ImportFrom):
        return node.module or ""
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def test_no_module_imports_the_one_entry_binomials():
    """``combinat.binomial`` and ``combinat.multinomial`` cost one factorial
    quotient per entry; the package builds whole rows and folds, and keeps the
    two for the test oracles and the benchmark tracer's call counts."""
    importers = [(name, m) for name, modules in _imported_modules() for m in modules
                 if m.split(".")[-2:] in (["combinat", "binomial"], ["combinat", "multinomial"])]
    assert importers == []


# each ordering comparison: whether its left side is the lesser one when it holds
_LEFT_IS_LESS = {ast.Lt: True, ast.LtE: True, ast.Gt: False, ast.GtE: False}


def _lower_bounds(test, negated=False):
    """The number of comparisons in ``test``, each link of a chain and the operand of a ``not``
    included, that hold, or under ``not`` fail, when a name or subscript is below an integer
    literal: ``n < 0``, ``0 > n``, ``not (n >= m >= 0)``, ``not (1 <= k <= d)``."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _lower_bounds(test.operand, not negated)
    if not isinstance(test, ast.Compare):
        return 0
    sides, count = [test.left, *test.comparators], 0
    for left, op, right in zip(sides, test.ops, sides[1:]):
        if type(op) in _LEFT_IS_LESS:
            less_first = _LEFT_IS_LESS[type(op)] != negated  # the raise wants left < right
            bounded, literal = (left, right) if less_first else (right, left)
            count += (isinstance(bounded, (ast.Name, ast.Subscript))
                      and isinstance(literal, ast.Constant) and type(literal.value) is int)
    return count


def _raised_name(statement):
    """``X`` of ``raise X`` or ``raise X(...)``, None for any other statement or raise."""
    exc = statement.exc if isinstance(statement, ast.Raise) else None
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return exc.id if isinstance(exc, ast.Name) else None


def _raises_value_error(statement):
    """``raise ValueError`` or ``raise UsageError``, the package's ``ValueError``, called or not."""
    return _raised_name(statement) in ("ValueError", "UsageError")


def _hand_written_lower_bounds():
    """(file name, function, line, bounds) of each ``if`` of the package, the test ring aside,
    that raises ``ValueError`` or ``UsageError`` when a name or subscript is below an integer
    literal, alone, in a chain, under a ``not`` or inside an ``or``."""
    for path in sorted(Path(segre_degrees.__file__).parent.glob("*.py")):
        if path.stem == "truncpoly":  # the test ring; its exponent check bounds no argument
            continue
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> innermost function; ast.walk reaches outer functions first
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(function), function.name))
        for node in ast.walk(tree):
            if not isinstance(node, ast.If) or not any(map(_raises_value_error, node.body)):
                continue
            test = node.test
            parts = test.values if isinstance(test, ast.BoolOp) and isinstance(
                test.op, ast.Or) else [test]
            bounds = sum(map(_lower_bounds, parts))
            if bounds and (path.name, owner.get(node)) != ("combinat.py", "at_least"):
                yield path.name, owner.get(node), node.lineno, bounds


def test_every_lower_bound_is_read_through_at_least():
    """``combinat.at_least`` is the one lower bound of the package: it reads the value by
    ``operator.index`` first and refuses with one message shape, which a hand-written
    ``if n < 0: raise UsageError(...)`` would do neither of."""
    assert list(_hand_written_lower_bounds()) == []


def test_only_asympt_bounds_an_argument_by_the_largest_double():
    """The estimates' size rule, a d or n above ``sys.float_info.max``, lives in ``asympt``
    alone: no other module names ``float_info.max``, so the command line cannot grow a second
    copy of it.  ``float_info.min`` is an output rule of ``cli`` and is not matched."""
    found = []
    for path in sorted(Path(segre_degrees.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "max"
                    and _spelled(node.value) == "float_info" and path.stem != "asympt"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_at_least_reads_by_index_and_refuses_below_its_least():
    assert combinat.at_least(True, 0, "flag") == 1
    assert combinat.at_least(10 ** 30, 5, "n") == 10 ** 30
    for value in (2.0, Fraction(2), "2"):
        with pytest.raises(TypeError):
            combinat.at_least(value, 0, "n")
    with pytest.raises(combinat.UsageError, match="^n must be at least 5, got 4$"):
        combinat.at_least(4, 5, "n")


def test_show_int_writes_an_integer_past_4300_digits_as_its_digit_count():
    """Up to 4300 digits, the default int -> str limit, ``str``; past it the sign and the digit
    count, found from ``bit_length`` with one power of ten, on both sides of 10^k."""
    assert combinat.show_int(10 ** 4300 - 1) == "9" * 4300
    assert combinat.show_int(-(10 ** 4300 - 1)) == "-" + "9" * 4300
    assert combinat.show_int(10 ** 4300) == "<4301-digit integer>"
    assert combinat.show_int(-10 ** 4300) == "-<4301-digit integer>"
    assert [combinat.show_int(v) for v in (0, 7, -10, 2 ** 64)] == \
        ["0", "7", "-10", "18446744073709551616"]
    for k in range(4301, 4400):
        assert combinat.show_int(10 ** k - 1) == f"<{k}-digit integer>"
        assert combinat.show_int(10 ** k) == f"<{k + 1}-digit integer>"
    for bits in range(14280, 14700):  # 2^14284 is the least power of two with 4301 digits
        digits = floor(bits * log10(2)) + 1
        shown = combinat.show_int(-2 ** bits)
        assert shown == (str(-2 ** bits) if digits <= 4300 else f"-<{digits}-digit integer>")


@pytest.mark.parametrize("args, peak", [
    # N = 5, d = 2: 5*1 + 5 + 2 = 12 bits, so 4096 + (12 + 8) integers of 36 bytes
    (((2, 3), (1, 1), 1), ("the degree kernel for N=5, d=2", 4816)),
    (((40, 50), (1, 7), -9), ("the degree kernel for N=90, d=2", 19680)),
    (((6, 7), (1, 2), 3), ("the degree kernel for N=13, d=2", 5568)),
    (((4, 4), (2, 5), -3, 2), ("the degree kernel for N=16, d=4", 5976)),
    (((30,), (1,), 5, 7), ("the degree kernel for N=210, d=7", 68408)),
], ids=["unit", "weight-7", "weight-2-at-3", "two-copies", "seven-copies"])
def test_fold_cost_charges_its_exact_bytes(args, peak):
    """The bit count and the bytes of each held integer, to the byte: each term of the bit sum,
    the readout's (N + 1) |x| bits and the ``copies`` default move some value across a
    30-bit limb."""
    assert combinat.fold_cost(*args) == peak


# module -> why no package module imports it, at the top level or in a function
_BANNED_IMPORTS = {
    **dict.fromkeys(("concurrent", "multiprocessing", "threading", "subprocess"),
                    "every computation runs in the calling thread of the calling process"),
    "argparse": "cli.parse_args reads argv from the command table; argparse would load "
                "gettext and locale to translate its messages",
    "typing": "annotations name the builtin and collections.abc types; typing loads re, "
              "enum, functools and contextlib into every process",
}


def _banned_imports(*banned):
    """(file name, module, reason) of each import, at any depth, of one of
    ``banned``, each a key of ``_BANNED_IMPORTS``."""
    return [(name, m, _BANNED_IMPORTS[m.split(".")[0]]) for name, modules in _imported_modules()
            for m in modules if m.split(".")[0] in banned]


def test_the_package_starts_no_processes_or_threads():
    assert _banned_imports("concurrent", "multiprocessing", "threading", "subprocess") == []


def test_no_module_imports_argparse():
    assert _banned_imports("argparse") == []


def test_no_module_imports_typing():
    assert _banned_imports("typing") == []


# module -> why no request below loads it, in any --format
_NOT_LOADED_AT_START_UP = {
    **dict.fromkeys(("typing", "re", "enum", "functools", "contextlib"),
                    "only annotations used typing, which loads the other four"),
    **dict.fromkeys(("json", "csv", "_json", "_csv"),
                    "cli._render writes JSON and CSV itself; json loads re and compiles its "
                    "regexes"),
    "__future__": "annotations are evaluated where each function is defined; one that names a "
                  "class imported only under TYPE_CHECKING, or its own class, is a string",
    **dict.fromkeys(("fractions", "decimal", "numbers"),
                    "no request builds a Fraction; decimal is imported only for a ratio "
                    "below the normal doubles"),
    **dict.fromkeys(("argparse", "gettext", "locale"), "argv is read from cli._COMMANDS"),
    **dict.fromkeys(("dataclasses", "inspect"), "the result types are named tuples"),
}
_SRC = str(Path(segre_degrees.__file__).parent.parent)
# A child that starts the command line as ``python -S -m segre_degrees.cli`` does, by runpy,
# and at exit writes three lines on stderr: the modules loaded before the package (runpy's,
# ``importlib.util`` among them), the modules loaded at exit, and the package modules that ran.
# A lazily registered module has run once its class is the plain module type again; ``cli``
# runs as ``__main__``.  ``-S`` keeps ``site`` (and any ``.pth`` file it runs) from loading
# modules first.
_CHILD = f"""\
import atexit, runpy, sys
sys.path.insert(0, {_SRC!r})
started = sorted(sys.modules)
def report():
    ran = [sys.modules["__main__"].__spec__.name, *(name for name, module in sys.modules.items()
                                                    if type(module) is type(sys))]
    for names in (started, sorted(sys.modules),
                  sorted(name.split(".")[1] for name in ran if name.startswith("segre_degrees."))):
        print(*names, file=sys.stderr)
atexit.register(report)
runpy.run_module("segre_degrees.cli", run_name="__main__", alter_sys=True)
"""
# A child that starts as the one above, registers one module lazily and never reads it, and
# writes the modules that the registration loaded: none on Python 3.11, where runpy has loaded
# all that ``importlib.util`` needs; from 3.12 on, ``threading`` and what it imports, for the
# lock of a lazy module.
_LOADER_PROBE = f"""\
import importlib.util, runpy, sys
started = set(sys.modules)
spec = importlib.util.spec_from_file_location("probe", {combinat.__file__!r})
spec.loader = importlib.util.LazyLoader(spec.loader)
spec.loader.exec_module(importlib.util.module_from_spec(spec))
print(*sorted(set(sys.modules) - started), file=sys.stderr)
"""


@functools.cache
def _loader_imports():
    done = subprocess.run([sys.executable, "-S", "-c", _LOADER_PROBE],
                          capture_output=True, text=True, check=True)
    return set(done.stderr.split())


def _start_up(argv):
    """(exit code, stdout, modules loaded by the package, package modules run) of one child
    that runs the command line on ``argv`` as ``python -S -m segre_degrees.cli`` does."""
    done = subprocess.run([sys.executable, "-S", "-c", _CHILD, *argv], capture_output=True,
                          text=True)
    started, loaded, ran = (set(line.split()) for line in done.stderr.splitlines()[-3:])
    return done.returncode, done.stdout, loaded - started, ran


def _assert_loads_only_what_it_uses(loaded):
    """The start-up import contract of every process, whatever its ``--format``: it loads none
    of ``_NOT_LOADED_AT_START_UP`` beyond what runpy loads before the package and
    ``LazyLoader`` loads for its registrations."""
    assert sorted(set(_NOT_LOADED_AT_START_UP) & loaded - _loader_imports()) == []


_HYPERDET = {"cli", "combinat", "hyperdet"}
_EDDEG = {"cli", "combinat", "eddeg"}
_ASYMPT = {"cli", "combinat", "asympt"}
_POLAR = {"cli", "combinat", "polar"}


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """The import and the refusal of an empty argv: ``dataclasses`` and the ``inspect`` it
    pulls in would cost ~20 ms of every process, and nothing else of the contract loads either;
    of the package, only ``cli`` and ``combinat``, which holds ``UsageError``, run."""
    exit_code, stdout, loaded, ran = _start_up([])
    assert (exit_code, stdout, ran) == (2, "", {"cli", "combinat"})
    _assert_loads_only_what_it_uses(loaded)


def test_a_plain_request_loads_no_argument_parser_or_translations():
    """``cli.parse_args`` reads argv from the command table, so a request
    loads neither ``argparse`` nor its ``gettext`` and ``locale``."""
    exit_code, stdout, loaded, ran = _start_up(["hyperdet", "1,1,1"])
    assert (exit_code, stdout, ran) == (0, "4\n", _HYPERDET)
    _assert_loads_only_what_it_uses(loaded)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_a_request_in_any_format_imports_no_serializer(fmt):
    """``cli._render`` writes JSON and CSV itself, so a ``hyperdet`` request loads neither
    ``json`` nor ``csv``, nor their C parts, in any format."""
    argv = ["hyperdet", "1,1,1", "--format", fmt]
    exit_code, _, modules, ran = _start_up(argv)
    assert (exit_code, ran) == (0, _HYPERDET)
    assert sorted({"json", "csv", "_json", "_csv"} & modules) == []
    _assert_loads_only_what_it_uses(modules)


# request -> the package modules it runs
_RUNS = {
    "eddeg 1,1,1": _EDDEG | {"hyperdet"},  # the Frobenius route reads the GKZ criterion
    "eddeg 1,3 --generic": _EDDEG, "table table2": _EDDEG, "table stabilization": _EDDEG,
    "table dual-example": _POLAR, "verify identities --max 6": _POLAR,
    "verify rw-constants --max 11": _ASYMPT | {"hyperdet"},
    "verify stabilization --max 3": _EDDEG | {"hyperdet", "polar"},
    "verify cross-oracle --max 4": _HYPERDET | {"polar"},
    "asympt hyperdet 3 2:4 --compare": _ASYMPT | {"hyperdet"},
    "asympt binary 8": _ASYMPT, "asympt discriminant 3 4": _ASYMPT | {"eddeg"},
}


@pytest.mark.parametrize("request_, ran", _RUNS.items(), ids=list(_RUNS))
def test_a_request_loads_only_what_it_uses(request_, ran):
    """Each request runs only the package modules its route reads; ``truncpoly``, the test
    ring, runs in none."""
    exit_code, _, loaded, modules_run = _start_up(request_.split())
    assert (exit_code, modules_run) == (0, ran)
    _assert_loads_only_what_it_uses(loaded)


@pytest.mark.parametrize("argv", ["hyperdet 1,x,1", "eddeg 1,1 --weights 0", "asympt sv 3 x",
                                  "asympt binary 3 --compare", "verify identities --max -1",
                                  "frobenius 1,1"])
def test_a_refusal_of_argv_runs_only_the_command_line_and_combinat(argv):
    """A value that ``cli`` refuses as it reads argv ends the request before any route runs."""
    exit_code, stdout, loaded, ran = _start_up(argv.split())
    assert (exit_code, stdout, ran) == (2, "", {"cli", "combinat"})
    _assert_loads_only_what_it_uses(loaded)


def test_the_benchmark_tracer_finds_every_name_it_patches():
    """``perfbench/spans.py`` wraps package functions from outside, by module
    and name.  In a process that has imported only ``segre_degrees.cli``, each
    module it names must be in ``sys.modules`` and hold each name: this is what keeps
    ``truncpoly`` and every subcommand module registered by the package, lazily, whether or
    not a request runs them.  ``-B`` leaves the benchmark directory as it is."""
    root = Path(segre_degrees.__file__).parents[2]
    code = "\n".join([
        f"import sys; sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]",
        "import segre_degrees.cli",
        "from spans import COUNTED_CALLS, TIMED_LAYERS, Tracer",
        "owners = {owner for targets in TIMED_LAYERS.values() for owner, _ in targets}",
        "owners |= {owner for owner, _ in COUNTED_CALLS.values()}",
        "print(sorted(o for o in owners if 'segre_degrees.' + o not in sys.modules))",
        "with Tracer().patched():  # raises for a name that its module does not hold",
        "    pass",
    ])
    done = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_only_emit_writes_stdout():
    """Diagnostics never touch stdout: every ``print`` names its stream, and
    ``sys.stdout`` appears only in ``cli._emit``, which writes it, and in ``cli.run``,
    which flushes it before ``os._exit``."""
    found = []
    for path in sorted(Path(segre_degrees.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "cli.py":
            for fn in tree.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in ("_emit", "run"):
                    allowed |= {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                    and not any(kw.arg == "file" for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno} print without file=")
            names_stdout = (isinstance(node, ast.Attribute) and node.attr == "stdout"
                            or isinstance(node, ast.Name) and node.id == "stdout")
            if names_stdout and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno} stdout")
    assert found == []


def test_one_function_turns_argv_text_into_integers():
    """Every integer the command line reads goes through ``cli._integers``:
    ``int`` (called or passed as ``type=int``) and the digit tests of ``str``
    appear nowhere else in ``cli.py``, so a new option cannot grow a second,
    looser parser."""
    path = Path(segre_degrees.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    (rule,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_integers"]
    allowed = {id(node) for node in ast.walk(rule)}
    hints = [hint for node in ast.walk(tree)
             for hint in (getattr(node, "annotation", None), getattr(node, "returns", None))
             if hint is not None]
    annotations = {id(node) for hint in hints for node in ast.walk(hint)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed or id(node) in annotations:
            continue
        if isinstance(node, ast.Name) and node.id == "int":
            found.append(f"cli.py:{node.lineno} int")
        if isinstance(node, ast.Attribute) and node.attr in ("isdecimal", "isdigit", "isnumeric"):
            found.append(f"cli.py:{node.lineno} .{node.attr}")
    assert found == []
