from __future__ import annotations

import ast
import importlib
import inspect
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
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
    """The truncated ring is a test oracle and is on no production path; the
    package imports it only so that the benchmark tracer can patch it."""
    importers = {name for name, modules in _imported_modules()
                 if any(m.split(".")[-1] == "truncpoly" for m in modules)}
    assert importers == {"__init__.py"}


def test_no_module_imports_the_one_entry_binomials():
    """``combinat.binomial`` and ``combinat.multinomial`` cost one factorial
    quotient per entry; the package builds whole rows and folds, and keeps the
    two for the test oracles and the benchmark tracer's call counts."""
    importers = [(name, m) for name, modules in _imported_modules() for m in modules
                 if m.split(".")[-2:] in (["combinat", "binomial"], ["combinat", "multinomial"])]
    assert importers == []


def _is_lower_bound(test):
    """A comparison ``name < literal`` or ``subscript <= literal`` of one integer literal."""
    return (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Lt, ast.LtE))
            and isinstance(test.left, (ast.Name, ast.Subscript))
            and isinstance(test.comparators[0], ast.Constant)
            and type(test.comparators[0].value) is int)


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
    literal, alone or inside an ``or``."""
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
            bounds = sum(map(_is_lower_bound, parts))
            if bounds and (path.name, owner.get(node)) != ("combinat.py", "at_least"):
                yield path.name, owner.get(node), node.lineno, bounds


def test_every_lower_bound_is_read_through_at_least():
    """``combinat.at_least`` is the one lower bound of the package: it reads the value by
    ``operator.index`` first and refuses with one message shape, which a hand-written
    ``if n < 0: raise UsageError(...)`` would do neither of."""
    assert list(_hand_written_lower_bounds()) == []


def test_at_least_reads_by_index_and_refuses_below_its_least():
    assert combinat.at_least(True, 0, "flag") == 1
    assert combinat.at_least(10 ** 30, 5, "n") == 10 ** 30
    for value in (2.0, Fraction(2), "2"):
        with pytest.raises(TypeError):
            combinat.at_least(value, 0, "n")
    with pytest.raises(combinat.UsageError, match="^n must be at least 5, got 4$"):
        combinat.at_least(4, 5, "n")


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


# module -> why no request below loads it; json and csv load with their --format only
_NOT_LOADED_AT_START_UP = {
    **dict.fromkeys(("typing", "re", "enum", "functools", "contextlib"),
                    "only annotations used typing, which loads the other four"),
    **dict.fromkeys(("json", "csv"), "imported by their branch of cli._render"),
    **dict.fromkeys(("fractions", "decimal", "numbers"),
                    "no request builds a Fraction; decimal is imported only for a ratio "
                    "below the normal doubles"),
    **dict.fromkeys(("argparse", "gettext", "locale"), "argv is read from cli._COMMANDS"),
    **dict.fromkeys(("dataclasses", "inspect"), "the result types are named tuples"),
}
# every submodule the benchmark tracer looks up in sys.modules
_LOADED_WITH_THE_PACKAGE = {"asympt", "combinat", "eddeg", "hyperdet", "polar", "truncpoly"}


def _start_up(argv):
    """(exit code, stdout, loaded module names) of one ``python -S`` process
    that imports ``segre_degrees.cli`` and, for a non-empty ``argv``, runs
    ``cli.main(argv)``.  ``-S`` keeps ``site`` (and any ``.pth`` file it
    runs) from loading modules first."""
    src = str(Path(segre_degrees.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import segre_degrees.cli as cli; "
            "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(code, *sorted(sys.modules), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                          capture_output=True, text=True, check=True)
    exit_code, *loaded = done.stderr.split()
    return int(exit_code), done.stdout, set(loaded)


def _assert_loads_only_what_it_uses(argv, loaded):
    """The start-up import contract of every process: it imports the package
    and its submodules, and none of ``_NOT_LOADED_AT_START_UP`` but the one
    output module its ``--format`` names."""
    output = {"csv", "json"} & set(argv)  # each imports re, which imports enum and functools
    allowed = output | {"re", "enum", "functools"} if output else set()
    assert sorted(set(_NOT_LOADED_AT_START_UP) & loaded - allowed) == []
    assert output <= loaded
    assert _LOADED_WITH_THE_PACKAGE - {m.split(".")[-1] for m in loaded} == set()


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """The import alone: ``dataclasses`` and the ``inspect`` it pulls in
    would cost ~20 ms of every process, and nothing else of the contract
    loads either."""
    exit_code, stdout, loaded = _start_up([])
    assert (exit_code, stdout) == (0, "")
    _assert_loads_only_what_it_uses([], loaded)


def test_a_plain_request_loads_no_argument_parser_or_translations():
    """``cli.parse_args`` reads argv from the command table, so a request
    loads neither ``argparse`` nor its ``gettext`` and ``locale``."""
    exit_code, stdout, loaded = _start_up(["hyperdet", "1,1,1"])
    assert (exit_code, stdout) == (0, "4\n")
    _assert_loads_only_what_it_uses(["hyperdet", "1,1,1"], loaded)


@pytest.mark.parametrize("fmt, loaded", [("plain", []), ("csv", ["csv"]), ("json", ["json"])])
def test_a_request_imports_json_csv_and_fractions_only_where_used(fmt, loaded):
    """``json`` and ``csv`` are imported by the code that uses them, so a
    plain ``hyperdet`` loads neither."""
    argv = ["hyperdet", "1,1,1", "--format", fmt]
    exit_code, _, modules = _start_up(argv)
    assert exit_code == 0
    assert sorted({"json", "csv"} & modules) == loaded
    _assert_loads_only_what_it_uses(argv, modules)


@pytest.mark.parametrize("request_", [
    "eddeg 1,3 --generic", "table table2", "table stabilization", "table dual-example",
    "verify identities --max 6", "verify rw-constants --max 11", "verify stabilization --max 3",
    "verify cross-oracle --max 4", "asympt hyperdet 3 2:4 --compare", "asympt binary 8",
    "asympt discriminant 3 4",
])
def test_a_request_loads_only_what_it_uses(request_):
    exit_code, _, loaded = _start_up(request_.split())
    assert exit_code == 0
    _assert_loads_only_what_it_uses(request_.split(), loaded)


def test_the_benchmark_tracer_finds_every_name_it_patches():
    """``perfbench/spans.py`` wraps package functions from outside, by module
    and name.  In a process that has imported only ``segre_degrees.cli``, each
    module it names must be loaded and hold each name: this is what keeps
    ``truncpoly`` imported by the package and every subcommand module
    imported eagerly.  ``-B`` leaves the benchmark directory as it is."""
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
