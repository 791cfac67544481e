"""End-to-end tests of the command line surface: values, formats, exit
codes, determinism, and the resource guard."""

from __future__ import annotations

import ast
import concurrent.futures
import json
import math
import os
import re
import sys
from collections import Counter
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
import time
import tracemalloc
from pathlib import Path

import pytest

import segre_degrees.asympt as asympt
import segre_degrees.cli as cli
import segre_degrees.combinat as combinat
import segre_degrees.eddeg as eddeg
import segre_degrees.hyperdet as hyperdet
import segre_degrees.polar as polar
from segre_degrees.cli import main
from segre_degrees.combinat import VerificationError
from segre_degrees.hyperdet import binary_hyperdet_degree
from segre_degrees.truncpoly import TruncatedPoly

TABLE2_CSV = """\
X,m=0,m=1,m=2,m=3,m=4,m=5
P1xP1,2,6,8,8,8,8
P1xP2,2,8,15,18,18,18
P2xP2,3,15,37,55,61,61
P2xP3,3,18,55,104,138,148
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hyperdet_command(capsys):
    code, out, _ = run(["hyperdet", "1,1,1"], capsys)
    assert code == 0
    assert out == "4\n"
    code, out, _ = run(["hyperdet", "1,1,3"], capsys)
    assert code == 0
    assert out.startswith("0")
    assert "dual defective" in out
    code, out, _ = run(["hyperdet", "2", "--omega", "3"], capsys)
    assert code == 0
    assert out == "12\n"
    assert run(["hyperdet", "1,1,3000"], capsys) == (0, "0  (dual defective)\n", "")


def test_parse_errors_exit_2(capsys):
    code, _, err = run(["hyperdet", "1,x,3"], capsys)
    assert code == 2
    assert "error" in err
    code, _, _ = run(["table", "tableX"], capsys)
    assert code == 2
    code, _, err = run(["eddeg", "1,2", "--weights", "2,2"], capsys)
    assert code == 2
    assert "generic" in err


# every position where the command line reads an integer; "{}" is replaced by the token
INTEGER_POSITIONS = {
    "hyperdet-dims": ["hyperdet", "{}"],
    "eddeg-dims": ["eddeg", "{}"],
    "weights": ["eddeg", "2", "--weights", "{}"],
    "grid-list": ["asympt", "hyperdet", "3", "{}"],
    "range-start": ["asympt", "hyperdet", "3", "{}:5"],
    "range-stop": ["asympt", "hyperdet", "3", "1:{}"],
    "range-step": ["asympt", "hyperdet", "3", "1:5:{}"],
    "asympt-d": ["asympt", "hyperdet", "{}", "5"],
    "discriminant-weight": ["asympt", "discriminant", "5", "{}"],
    "hyperdet-omega": ["hyperdet", "1,1,1", "--omega", "{}"],
    "sv-omega": ["asympt", "sv", "3", "2", "--omega", "{}"],
    "jobs": ["table", "dual-example", "--jobs", "{}"],
    "cap-bytes": ["hyperdet", "1,1,1", "--cap-bytes", "{}"],
    "max": ["verify", "identities", "--max", "{}"],
}
# tokens that a looser parser (int(), str.isdecimal, str.isdigit) would take, and broken
# numbers and lists
EDGE_TOKENS = {"plus": "+1", "underscore": "1_0", "space": " 1", "arabic-indic": "\u0661",
               "exponent": "1e3", "superscript": "\u00b2", "empty": "", "comma": ",",
               "empty-item": "1,,2"}


@pytest.mark.parametrize("argv", [
    pytest.param(["table", "nosuchtable"], id="unknown-choice"),
    pytest.param(["hyperdet"], id="missing-positional"),
    pytest.param(["hyperdet", "1,1,1", "--jobs", "x"], id="non-integer-option"),
    pytest.param(["verify", "identities", "--max", "x"], id="non-integer-max"),
    pytest.param(["verify", "identities", "--max", "+5"], id="plus-signed-max"),
    pytest.param(["verify", "identities", "--max", "1_0"], id="underscored-max"),
    pytest.param(["verify", "identities", "--max", " 3"], id="space-padded-max"),
    pytest.param(["asympt", "foo", "3", "4"], id="unknown-formula"),
    pytest.param(["hyperdet", "1,1,1", "--bogus"], id="unknown-flag"),
    pytest.param([], id="no-arguments"),
    # integers that int() took before every argument went through cli._integers
    pytest.param(["hyperdet", "1_0,1,1"], id="found-dims-underscore"),
    pytest.param(["hyperdet", " 1,+1"], id="found-dims-space-plus"),
    pytest.param(["asympt", "hyperdet", "+3", "2"], id="found-d-plus"),
    pytest.param(["asympt", "hyperdet", "1_0", "2"], id="found-d-underscore"),
    pytest.param(["asympt", "discriminant", "5", "1_0"], id="found-weight-underscore"),
    pytest.param(["eddeg", "2", "--weights", "+4"], id="found-weights-plus"),
    *(pytest.param([part.replace("{}", token) for part in template], id=f"{where}-{name}")
      for where, template in INTEGER_POSITIONS.items()
      for name, token in EDGE_TOKENS.items()),
    # the grammar of cli.parse_args
    pytest.param(["asympt", "hyperdet", "3", "2", "--c"], id="grammar-ambiguous-prefix"),
    pytest.param(["hyperdet", "1,1,1", "--omega"], id="grammar-option-without-value"),
    pytest.param(["hyperdet", "1,1,1", "--out", "--timing"], id="grammar-option-then-option"),
    pytest.param(["hyperdet", "1,1,1", "--timing=1"], id="grammar-flag-with-value"),
    pytest.param(["table", "table2", "extra"], id="grammar-extra-positional"),
    pytest.param(["hyperdet", "1,1,1", "--", "--omega", "3"], id="grammar-option-after-double-dash"),
    pytest.param(["hyperdet", "1,1,1", "-x"], id="grammar-unknown-short-option"),
    pytest.param(["nosuch", "1,1,1"], id="grammar-unknown-subcommand"),
    pytest.param(["--format", "json", "hyperdet", "1,1,1"], id="grammar-option-before-subcommand"),
    pytest.param(["hyperdet", "1,1,1", "--format=xml"], id="grammar-unknown-choice-after-equals"),
    pytest.param(["hyperdet", "1,1,1", "--omega=-2"], id="grammar-negative-value-after-equals"),
    # a help prefix needs a character after ``--``
    pytest.param(["--"], id="grammar-bare-double-dash"),
    pytest.param(["--", "hyperdet", "1,1,1"], id="grammar-double-dash-before-subcommand"),
    pytest.param(["--=x"], id="grammar-double-dash-with-value"),
])
def test_argparse_errors_are_one_error_line(capsys, argv):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--help" not in err  # no argv here types it, so no error may name it


# one argv per fault that the value reader or the option lookup of cli.parse_args reports
@pytest.mark.parametrize("argv, line", [
    pytest.param("nosuch 1,1,1", "the command must be one of hyperdet, eddeg, table, verify, "
                 "asympt, got 'nosuch'", id="command"),
    pytest.param("table tableX", "name must be one of table2, stabilization, dual-example, "
                 "got 'tableX'", id="table-choice"),
    pytest.param("verify nosuch", "suite must be one of identities, rw-constants, "
                 "stabilization, cross-oracle, got 'nosuch'", id="verify-choice"),
    pytest.param("asympt foo 3 4", "formula must be one of hyperdet, ed, sv, binary, "
                 "discriminant, got 'foo'", id="asympt-choice"),
    pytest.param("hyperdet 1,1,1 --format xml", "--format must be one of plain, csv, json, "
                 "got 'xml'", id="format-choice"),
    pytest.param("verify identities --format=yaml", "--format must be one of plain, csv, "
                 "json, got 'yaml'", id="format-choice-after-equals"),
    pytest.param("hyperdet 1,1,1 --omega x", "--omega must be an integer, got 'x'",
                 id="omega-not-integer"),
    pytest.param("asympt sv 3 2 --omega 0", "--omega must be at least 1, got 0",
                 id="omega-below-least"),
    pytest.param("table table2 --jobs 1e3", "--jobs must be an integer, got '1e3'",
                 id="jobs-not-integer"),
    pytest.param("table table2 --jobs 0", "--jobs must be at least 1, got 0",
                 id="jobs-below-least"),
    pytest.param("hyperdet 1,1,1 --cap-bytes +5", "--cap-bytes must be an integer, got '+5'",
                 id="cap-bytes-not-integer"),
    pytest.param("hyperdet 1,1,1 --cap-bytes=0", "--cap-bytes must be at least 1, got 0",
                 id="cap-bytes-below-least"),
    pytest.param("asympt binary 1_0", "d must be an integer, got '1_0'", id="d-not-integer"),
    pytest.param("asympt hyperdet -1 5", "d must be at least 1, got -1", id="d-below-least"),
    pytest.param("asympt binary 1", "d must be at least 2, got 1", id="d-below-formula"),
    pytest.param("hyperdet 1,1,1 --timing=1", "--timing takes no value, got '--timing=1'",
                 id="flag-with-value"),
    pytest.param("eddeg 1,3 --gen=yes", "--generic takes no value, got '--gen=yes'",
                 id="flag-prefix-with-value"),
    pytest.param("hyperdet 1,1,1 --omega", "--omega needs a value", id="option-without-value"),
    pytest.param("hyperdet 1,1,1 --out --timing", "--out needs a value",
                 id="option-then-option"),
    pytest.param("asympt hyperdet", "the argument d is required", id="missing-positional"),
    pytest.param("table table2 extra", "unexpected argument 'extra'", id="extra-positional"),
    pytest.param("asympt hyperdet 3 2 --c", "option --c is ambiguous: it could be --compare, "
                 "--cap-bytes", id="ambiguous-prefix"),
    pytest.param("--format json hyperdet", "unknown option --format", id="option-before-command"),
    pytest.param("-- hyperdet", "unknown option --", id="double-dash-before-command"),
])
def test_usage_errors_name_the_argument_and_the_rule(capsys, argv, line):
    assert run(argv.split(), capsys) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("argv, canonical", [
    pytest.param("hyperdet 2 --omega=3", "hyperdet 2 --omega 3", id="option-equals-value"),
    pytest.param("hyperdet 2 --om 3", "hyperdet 2 --omega 3", id="unique-prefix"),
    pytest.param("hyperdet 1,1,1 --form json", "hyperdet 1,1,1 --format json", id="prefix-of-choices"),
    pytest.param("hyperdet 1,1,1 --form=csv", "hyperdet 1,1,1 --format csv", id="prefix-equals-value"),
    pytest.param("eddeg 1,3 --gen", "eddeg 1,3 --generic", id="prefix-of-flag"),
    pytest.param("hyperdet --omega 3 2", "hyperdet 2 --omega 3", id="option-before-positional"),
    pytest.param("asympt hyperdet --compare 3 2:4", "asympt hyperdet 3 2:4 --compare",
                 id="option-between-positionals"),
    pytest.param("asympt --compare --format csv sv 3 2 --omega 2",
                 "asympt sv 3 2 --omega 2 --compare --format csv", id="options-first"),
    pytest.param("hyperdet -- 1,1,1", "hyperdet 1,1,1", id="double-dash"),
    pytest.param("table --format csv -- table2", "table table2 --format csv",
                 id="double-dash-after-option"),
    pytest.param("hyperdet 2 --omega 5 --omega 3", "hyperdet 2 --omega 3", id="repeated-option"),
    pytest.param("eddeg 1,3 --generic --generic", "eddeg 1,3 --generic", id="repeated-flag"),
    pytest.param("verify identities --m=3", "verify identities --max 3", id="verify-max-prefix"),
])
def test_every_spelling_gives_the_bytes_of_its_canonical_form(capsys, argv, canonical):
    expected = run(canonical.split(), capsys)
    assert expected[0] == 0
    assert run(argv.split(), capsys) == expected


# the options and positionals of each subcommand, as the README lists them
COMMON_OPTIONS = ["--format", "--out", "--jobs", "--cap-bytes", "--timing"]
SUBCOMMAND_ARGUMENTS = {
    "hyperdet": ["dims", "--omega"],
    "eddeg": ["dims", "--generic", "--weights"],
    "table": ["name", "table2", "stabilization", "dual-example"],
    "verify": ["suite", "identities", "rw-constants", "stabilization", "cross-oracle", "--max"],
    "asympt": ["formula", "hyperdet", "ed", "sv", "binary", "discriminant", "d", "grid",
               "--omega", "--compare"],
}


def test_the_readme_names_the_whole_grammar():
    """The README's "Command line" section and ``cli._COMMANDS`` describe one
    grammar: the section names every subcommand, positional, choice and
    option, and every option that it names is one, in full or shortened to a
    prefix as the section allows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    words = set(re.findall(r"[-\w]+", section))
    unnamed, options = [], set()
    for command in cli._COMMANDS:
        positionals, command_options = cli._arguments(command)
        options.update(name for name, *_ in command_options)
        for name, takes, _, _ in positionals + command_options:
            choices = takes if isinstance(takes, tuple) else ()
            unnamed += [f"{command}: {word}" for word in (command, name, *choices)
                        if word not in words]
    assert unnamed == []
    named = set(re.findall(r"(?<![-\w])--[a-z][-a-z]*", section))
    assert sorted(typed for typed in named
                  if not any(option.startswith(typed) for option in options)) == []


def test_the_readme_max_table_is_the_suite_table():
    """The README's ``verify --max`` table gives each suite's default, minimum and
    maximum as ``cli._SUITES`` holds them, one row per suite in the same order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| Suite | Default `--max` | Minimum `--max` | Maximum `--max` |\n"
    rows = readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    table = [re.fullmatch(r"\| `([-a-z]+)` \| (\d+) \| (\d+) \| (\d+) \|", row).groups()
             for row in rows]
    assert [(suite, *map(int, numbers)) for suite, *numbers in table] == [
        (suite, default, least, most) for suite, (_, default, least, most) in cli._SUITES.items()]


def test_the_readme_library_example_gives_its_comments():
    """Each expression of the README's library example evaluates to the
    result in its comment, on its line or the next.  A result that the
    comment elides with "..." is compared on the entries shown on each side."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    source = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    lines, namespace, checked = source.splitlines(), {}, 0
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = (lines[statement.end_lineno - 1].partition("#")[2]
                   or lines[statement.end_lineno].lstrip("# "))
        expected = ast.literal_eval(comment.strip())
        if isinstance(expected, list) and ... in expected:
            cut = expected.index(...)
            head, tail = expected[:cut], expected[cut + 1:]
            assert (value[:len(head)], value[len(value) - len(tail):]) == (head, tail), code
        else:
            assert value == expected, code
        checked += 1
    assert checked == 4


def test_the_readme_command_examples_give_their_comments(capsys):
    """Each command of the README's first "Command line" example whose comment starts with
    an integer or a comma list of them prints that token first."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    checked = 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        expected = comment.split()[0] if comment.strip() else ""
        if re.fullmatch(r"-?\d+(,-?\d+)*", expected):
            code, out, _ = run(command.split()[1:], capsys)
            assert (code, out.split()[0]) == (0, expected), line
            checked += 1
    assert checked == 7


@pytest.mark.parametrize("argv, named", [
    pytest.param(["--help"], list(SUBCOMMAND_ARGUMENTS), id="top"),
    pytest.param(["-h"], list(SUBCOMMAND_ARGUMENTS), id="top-h"),
    pytest.param(["--h"], list(SUBCOMMAND_ARGUMENTS), id="top-prefix-h"),
    pytest.param(["--he"], list(SUBCOMMAND_ARGUMENTS), id="top-prefix-he"),
    *(pytest.param([command, flag], arguments + COMMON_OPTIONS, id=f"{command}{suffix}")
      for command, arguments in SUBCOMMAND_ARGUMENTS.items()
      for flag, suffix in (("--help", ""), ("-h", "-h"))),
])
def test_help_prints_usage_on_stdout(capsys, argv, named):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: segre-degrees")
    words = set(re.findall(r"[-\w]+", out))
    assert [name for name in named if name not in words] == []


@pytest.mark.parametrize("argv", [["hyperdet", "--help", "1,x"], ["table", "nosuch", "-h"],
                                  ["verify", "identities", "--he"]],
                         ids=["before-a-bad-positional", "after-a-bad-choice", "prefix"])
def test_help_anywhere_is_the_subcommand_usage(capsys, argv):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: segre-degrees {argv[0]} ")


@pytest.mark.parametrize("argv", [
    ["hyperdet", "1,1,1", "--omega", "-2"],
    ["asympt", "sv", "3", "2", "--omega", "0"],
    ["asympt", "discriminant", "0", "3"],
    ["asympt", "discriminant", "5", "2"],
    ["asympt", "hyperdet", "3", "1:--5"],
    ["hyperdet", "1,1,1", "--cap-bytes", "-5"],
    ["hyperdet", "1,1,1", "--cap-bytes", "0"],
    ["hyperdet", "1,-1"],
    ["eddeg", "1,1", "--weights", "2,0"],
    ["asympt", "hyperdet", "3", "4,0"],
    ["asympt", "hyperdet", "3", "0:5"],
    ["asympt", "hyperdet", "3", "1:5:0"],
    ["asympt", "hyperdet", "3", "5:4"],
    ["asympt", "binary", "1"],
    ["verify", "identities", "--max", "101"],
], ids=["hyperdet-omega", "sv-omega", "discriminant-n", "discriminant-weight", "grid-range",
        "cap-bytes-negative", "cap-bytes-zero", "negative-dims", "zero-weight", "zero-grid-value",
        "zero-range-start", "zero-range-step", "descending-range", "binary-d",
        "found-identities-max-over-ceiling"])
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv, named", [
    (["asympt", "binary", HUGE], "factor count d="),
    (["asympt", "hyperdet", "3", HUGE], "grid value n="),
    (["asympt", "hyperdet", "3", "1:" + HUGE], "range '1:"),
    (["asympt", "ed", HUGE, "5"], "factor count d="),
], ids=["binary-d", "hyperdet-n", "hyperdet-range", "ed-d"])
def test_arguments_beyond_float_range_are_usage_errors(capsys, argv, named):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(dims, weight=1):
        raise ValueError("a bug in the kernel")

    monkeypatch.setattr(hyperdet, "sv_hyperdet_degree", broken)
    with pytest.raises(ValueError, match="a bug in the kernel"):
        main(["hyperdet", "1,1,1"])
    assert capsys.readouterr().out == ""


def test_internal_overflow_error_is_not_a_usage_error(monkeypatch, capsys):
    """Only the size rule makes an ``asympt`` argument too large; an
    ``OverflowError`` raised past it is a bug, not a usage error."""
    def broken(exact, log_estimate):
        raise OverflowError("a bug in the comparison")

    monkeypatch.setattr(asympt, "relative_error", broken)
    with pytest.raises(OverflowError, match="a bug in the comparison"):
        main(["asympt", "hyperdet", "3", "5", "--compare"])
    assert capsys.readouterr().out == ""


def test_exact_values_print_at_any_size(capsys):
    n, w = 20000, 3
    limit = sys.get_int_max_str_digits()
    code, out, err = run(["eddeg", str(n), "--weights", str(w)], capsys)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    assert len(out) > limit
    # the Veronese closed form, printed with the digit limit lifted here too
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{((w - 1) ** (n + 1) - 1) // (w - 2)}\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_eddeg_command(capsys):
    assert run(["eddeg", "1,1,1"], capsys)[1] == "6\n"
    assert run(["eddeg", "1,3", "--generic"], capsys)[1] == "14\n"
    assert run(["eddeg", "1,1,1,1"], capsys)[1] == "24\n"
    # single Veronese factor routes to the closed form
    assert run(["eddeg", "2", "--weights", "4"], capsys)[1] == "13\n"
    assert run(["eddeg", "1,1", "--weights", "1,1"], capsys)[1] == "2\n"


def test_table2_csv_golden(capsys):
    code, out, _ = run(["table", "table2", "--format", "csv"], capsys)
    assert code == 0
    assert out == TABLE2_CSV


def test_dual_example_plain(capsys):
    code, out, _ = run(["table", "dual-example"], capsys)
    assert code == 0
    assert out == "4,12,24,24,24,24\n"


def test_stabilization_table_json(capsys):
    code, out, _ = run(["table", "stabilization", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [row["stable_from"] for row in rows] == [2, 3, 4, 5]
    first = rows[0]
    assert first["parameters"]["base"] == "1,1"
    assert first["result"] == ["2", "6", "8", "8", "8", "8"]
    assert all(isinstance(v, str) for row in rows for v in row["result"])


def test_json_serializes_exact_values_as_strings(capsys):
    _, out, _ = run(["eddeg", "2,2,4", "--format", "json"], capsys)
    records = json.loads(out)
    assert records[0]["result"] == "61"
    assert "elapsed_ms" not in records[0]


def test_output_is_deterministic(capsys):
    runs = [run(["table", "table2", "--format", "json"], capsys)[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run(["asympt", "hyperdet", "3", "5,10", "--compare"], capsys)[1]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_jobs_do_not_change_bytes(capsys):
    base = run(["table", "dual-example", "--format", "csv"], capsys)[1]
    parallel = run(["table", "dual-example", "--format", "csv", "--jobs", "2"], capsys)[1]
    assert base == parallel


def test_verify_suites_pass(capsys):
    code, out, _ = run(["verify", "identities", "--max", "12"], capsys)
    assert code == 0
    assert "ok" in out
    assert run(["verify", "rw-constants", "--max", "6"], capsys)[0] == 0
    assert run(["verify", "cross-oracle", "--max", "5"], capsys)[0] == 0
    assert run(["verify", "stabilization", "--max", "4"], capsys)[0] == 0


def test_asympt_command(capsys):
    code, out, _ = run(["asympt", "hyperdet", "3", "10", "--compare"], capsys)
    assert code == 0
    assert "exact=542607560" in out
    assert "rel_error=" in out
    code, out, _ = run(["asympt", "binary", "8"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert any("hyperdet/ed-frobenius" in line for line in lines)
    assert any("hyperdet/ed-generic" in line for line in lines)
    code, _, err = run(["asympt", "hyperdet", "2", "5"], capsys)
    assert code == 2
    assert "d must be at least 3, got 2" in err
    code, out, _ = run(["asympt", "discriminant", "2", "5"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("compare", [[], ["--compare"]], ids=["plain", "compare"])
@pytest.mark.parametrize("d, grid", [("3", "2:8:2"), ("4", "2:6:2")])
def test_asympt_hyperdet_is_sv_at_omega_1(capsys, d, grid, compare):
    """``asympt hyperdet`` is the sv formula at omega = 1, printed without an
    omega parameter: the same plain bytes, and JSON records that differ only
    in ``formula`` and ``omega``."""
    hyperdet = ["asympt", "hyperdet", d, grid, *compare]
    sv = ["asympt", "sv", d, grid, *compare, "--omega", "1"]
    plain = run(hyperdet, capsys)
    assert plain[0] == 0
    assert run(sv, capsys) == plain
    records = {}
    for argv, formula, omega in ((hyperdet, "hyperdet", None), (sv, "sv", "1")):
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        records[formula] = json.loads(out)
        for record in records[formula]:
            assert record["parameters"].pop("formula") == formula
            assert record["parameters"].pop("omega", None) == omega
    assert records["hyperdet"] == records["sv"]


@pytest.mark.parametrize("d", [3, 8, 359, 1029, 1030, 1066, 1083, 1100, 5000, 10 ** 5, 10 ** 12,
                               10 ** 20, 10 ** 300],
                         ids=["3", "8", "359", "1029", "1030", "1066", "1083", "1100", "5000",
                              "1e5", "1e12", "1e20", "1e300"])
def test_binary_ratios_print_their_closed_forms(capsys, d):
    """hyperdet/ed-frobenius is (d+3)/e^2 and hyperdet/ed-generic is
    (d+3)/(2^(d+1) e - 1); taken as the difference of two log estimates they
    lost the digits of the Stirling terms, which grow as d log d.  Every
    printed digit of the generic ratio is the closed form's, correctly
    rounded, on both sides of d = 1029, the last normal double; past
    d = 10^12, where 2^(d+1) leaves even decimal's exponent range, the printed
    mantissa and exponent are read against the base-10 logarithm."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60 + len(str(d)), MAX_EMAX, MIN_EMIN
        e = Decimal(1).exp()
        frobenius = (d + 3) / e ** 2
        if d <= 10 ** 12:
            generic = (d + 3) / (2 ** Decimal(d + 1) * e - 1)
            exponent = generic.adjusted()
            mantissa = generic.scaleb(-exponent)
        else:  # the - 1 moves the value by a factor within 10^-(10^19) of 1
            log = ((d + 3) / e).log10() - (d + 1) * Decimal(2).log10()
            exponent = math.floor(log)
            mantissa = 10 ** (log - exponent)
        mantissa = Context(prec=12).plus(mantissa)
    code, out, _ = run(["asympt", "binary", str(d)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == f"{float(f'{frobenius:.12g}'):.12g}  quantity=hyperdet/ed-frobenius"
    printed, label = lines[4].split("  ")
    assert label == "quantity=hyperdet/ed-generic"
    if d < 1029:  # a normal double
        assert Decimal(printed) == mantissa.scaleb(exponent)
    else:
        printed_mantissa, printed_exponent = printed.split("e")
        assert (Decimal(printed_mantissa), int(printed_exponent)) == (mantissa, exponent)


@pytest.mark.parametrize("n", [3200, 3300, 5000, 100000])
def test_discriminant_ratios_print_every_digit(capsys, n):
    """The three ratios are quotients of exact integers, and each prints its
    12 correctly rounded digits, also where it is below the normal doubles:
    with omega = 3 the generic one is from n = 3176 on, and 0 as a double
    from n = 3341 on.  Such a value is text in every format."""
    omega = 3
    exact = (n + 1) * (omega - 1) ** n
    ed_f = ((omega - 1) ** (n + 1) - 1) // (omega - 2)
    ed_gen = ((2 * omega - 1) ** (n + 1) - (omega - 1) ** (n + 1)) // omega
    with localcontext() as ctx:
        ctx.prec = 60
        exact, ed_f, ed_gen = map(Decimal, (exact, ed_f, ed_gen))
        ratios = [exact * (omega - 1) / (ed_f * (omega - 2) * n), exact / (ed_f * (n + 1)),
                  exact * (2 ** Decimal(n + 1) - 1) / (ed_gen * (n + 1))]
    code, out, _ = run(["asympt", "discriminant", str(n), str(omega)], capsys)
    assert code == 0
    printed = [line.split("  ")[0] for line in out.splitlines()]
    assert [Decimal(text) for text in printed] == [Context(prec=12).plus(r) for r in ratios]
    assert ratios[2] < Decimal(sys.float_info.min)
    code, out, _ = run(["asympt", "discriminant", str(n), str(omega), "--format", "json"], capsys)
    assert json.loads(out)[2]["result"] == printed[2]


def test_a_mantissa_rounded_up_to_ten_moves_to_the_next_power():
    """10^0.999999999999999 rounds to 10.00000000000 at 12 digits, which prints
    as 1 at the next power of ten."""
    assert cli._ratio_value(0.0, 5, lambda dec: dec(-400) + dec("0.999999999999999")) == "1e-399"


def test_omega_is_only_for_the_sv_formula(capsys):
    for argv in (["ed", "3", "5", "--compare"], ["hyperdet", "3", "5"], ["binary", "3"],
                 ["discriminant", "3", "4"]):
        for omega in ("7", "1"):
            code, out, err = run(["asympt", *argv, "--omega", omega], capsys)
            assert code == 2
            assert out == ""
            assert "--omega applies only to the sv formula" in err
    code, out, _ = run(["asympt", "sv", "3", "4", "--omega", "2"], capsys)
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    (["binary", "8", "2:10"], "binary estimates take no grid"),
    (["binary", "8", "--compare"], "--compare applies only to hyperdet, ed, sv"),
    (["discriminant", "3", "4", "--compare"], "--compare applies only to hyperdet, ed, sv"),
    (["hyperdet", "3"], "formula 'hyperdet' needs a grid of n values after d"),
    (["sv", "3"], "formula 'sv' needs a grid of n values after d"),
    (["discriminant", "3"], "formula 'discriminant' needs the weight after d"),
], ids=["binary-grid", "binary-compare", "discriminant-compare", "hyperdet-no-grid",
        "sv-no-grid", "discriminant-no-weight"])
def test_asympt_refuses_arguments_it_would_ignore(capsys, argv, message):
    code, out, err = run(["asympt", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_cap_budget_guard(capsys):
    # the kernel model for 200,200,200 is ~338 kB (tracemalloc peak ~191 kB)
    code, out, err = run(["hyperdet", "200,200,200", "--cap-bytes", "100000"], capsys)
    assert code == 3
    assert out == ""
    assert "degree kernel" in err
    for extra in ([], ["--generic"]):
        code, out, _ = run(["eddeg", "200,200,200", "--cap-bytes", "100000", *extra], capsys)
        assert (code, out) == (3, "")
    # 30 factors need a few kB in the kernel, not 2^30 cells of a 30-variate ring
    code, out, _ = run(["hyperdet", ",".join(["1"] * 30)], capsys)
    assert code == 0
    assert out == f"{binary_hyperdet_degree(30)}\n"


def _traced_peak(call) -> int:
    """The tracemalloc peak of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_charge_bounds(peak, charge):
    """The guard refuses ``charge`` (what, bytes) one byte under the traced peak and
    accepts it at 16 times the peak."""
    with pytest.raises(cli.CapBudgetError):
        cli._check_cap(peak - 1, *charge)
    cli._check_cap(16 * peak, *charge)


@pytest.mark.parametrize("dims", [(3, 3, 3), (60, 60, 60), (200, 200, 200), (1,) * 100,
                                  (8, 8, 8, 8), (20,) * 4, (1, 1, 3000), (2, 3, 2000)])
def test_cap_model_bounds_the_kernel_peak(dims):
    """Each fold route against the peak its kernel reaches, and on the hypercubes 61^3 and
    21^4 the routes of ``asympt --compare`` too.  The weighted hyperdeterminant folds at unit weights
    and reads ``omega`` only at the end.  A long factor takes ``frobenius-boundary``; the fold of
    the long format itself is still charged by its own model."""
    d = len(dims)
    routes = [hyperdet.route(dims, 3), hyperdet.route(dims, 10**6), hyperdet.route(dims, 10**30),
              eddeg.route(dims, (1,) * d, False), eddeg.route(dims, (2,) * d, True)]
    long = 2 * max(dims) > sum(dims)
    names = ["segre-fold"] * 3 + ["frobenius-boundary" if long else "frobenius-fold", "segre-fold"]
    if long:
        routes.append(combinat.Route("frobenius-fold", combinat.fold_cost(dims, (1,) * d, 1),
                                     lambda: eddeg.frobenius_ed_degree(dims)))
        names.append("frobenius-fold")
    if dims in ((60,) * 3, (20,) * 4):
        routes += [asympt.FORMULAS[formula][0](d, dims[0], omega)
                   for formula, omega in (("hyperdet", 1), ("ed", 1), ("sv", 7))]
        names += ["segre-fold", "frobenius-fold", "segre-fold"]
    assert [r.name for r in routes] == names
    for route in routes:
        _assert_charge_bounds(_traced_peak(route.call), route.peak)


@pytest.mark.parametrize("dims, digits", [((20,), 5000), ((1, 1, 1), 100000), ((5, 5, 5), 20000)])
def test_cap_model_bounds_a_readout_larger_than_the_fold(dims, digits):
    # a weight of thousands of digits: the readout's integers and their Karatsuba
    # scratch, not the fold, hold the peak
    route = hyperdet.route(dims, 10**digits)
    _assert_charge_bounds(_traced_peak(route.call), route.peak)


def test_a_large_weight_is_charged_to_the_readout_not_the_fold():
    # traced peak ~79 MB; the model is ~322 MB, where charging the weight to every
    # integer of the fold asked for 2.46 GB
    route = hyperdet.route((1, 1, 20000), 10**6)
    cli._check_cap(cli.DEFAULT_CAP_BYTES, *route.peak)
    with pytest.raises(cli.CapBudgetError):
        cli._check_cap(300 * 10**6, *route.peak)


@pytest.mark.parametrize("dims", ["1,1,3", "1,1,100000", "1,1,10000000", "4", "0,0,2"])
def test_defective_formats_at_weight_one_skip_the_guard_and_the_kernel(monkeypatch, capsys, dims):
    def refuse(dims, weights):
        pytest.fail(f"the fold ran for the defective format {dims}")

    monkeypatch.setattr(hyperdet, "segre_fold", refuse)
    route = hyperdet.route(tuple(map(int, dims.split(","))))
    assert (route.name, route.peak) == ("defective", None)
    assert run(["hyperdet", dims, "--cap-bytes", "1"], capsys) == (0, "0  (dual defective)\n", "")


def test_defective_formats_above_weight_one_still_run_the_kernel(capsys):
    assert run(["hyperdet", "1,1,3", "--omega", "2"], capsys) == (0, "816\n", "")
    assert run(["hyperdet", "1,1,3", "--omega", "2", "--cap-bytes", "1"], capsys)[:2] == (3, "")


def test_cap_refusal_names_the_kernel_not_the_dims(capsys):
    # the guard reads the hypercube as one factor d times: no tuple of length d is built
    for d in (10**6, 10**12):
        code, out, err = run(["asympt", "hyperdet", str(d), "5", "--compare"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: the degree kernel for N={5 * d}, d={d} ")
        assert err.count("\n") == 1 and len(err.encode()) < 200


@pytest.mark.parametrize("argv", [["hyperdet", "3", "1:300"],
                                  ["sv", "3", "1:3000", "--omega", "7"]])
def test_cap_model_bounds_the_grid_peak(capsys, argv):
    argv = ["asympt", *argv, "--format", "json"]
    args = cli.parse_args(argv)
    tracemalloc.start()
    try:
        args.run(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run([*argv, "--cap-bytes", str(peak - 1)], capsys)[:2] == (3, "")
    assert run([*argv, "--cap-bytes", str(16 * peak)], capsys)[0] == 0


def test_huge_grid_is_refused_before_it_is_built(capsys):
    start = time.perf_counter()
    code, out, err = run(["asympt", "hyperdet", "3", "1:100000000"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: a grid of 100000000 points ")
    assert time.perf_counter() - start < 5


def test_a_grid_is_charged_4_kb_a_point_and_4_kb_more(capsys):
    argv = ["asympt", "hyperdet", "3", "1:10", "--cap-bytes"]
    assert run([*argv, "45056"], capsys)[0] == 0
    assert run([*argv, "45055"], capsys) == (
        3, "", "error: a grid of 10 points needs about 45056 bytes, over the budget of 45055\n")


def _refusing_routes(monkeypatch, formula, why):
    """Replaces the routes of ``formula`` by routes that charge the same but fail when called."""
    route, log_estimate = asympt.FORMULAS[formula]

    def refusing(d, n, omega):
        return route(d, n, omega)._replace(
            call=lambda: pytest.fail(f"an exact value for n={n} was computed {why}"))

    monkeypatch.setitem(asympt.FORMULAS, formula, (refusing, log_estimate))


@pytest.mark.parametrize("grid", ["100:450:50", "450,100,200"], ids=["range", "list"])
def test_compare_cap_is_checked_for_the_largest_point_before_any(monkeypatch, capsys, grid):
    argv = ["asympt", "hyperdet", "3", grid, "--compare", "--cap-bytes", "1400000"]
    alone = run([*argv[:3], "450", *argv[4:]], capsys)
    assert alone[:2] == (3, "")
    _refusing_routes(monkeypatch, "hyperdet", "before the cap refused the grid")
    assert run(argv, capsys) == alone


@pytest.mark.parametrize("argv", [["asympt", "hyperdet", "3", "5:20:5"],
                                  ["asympt", "ed", "4", "2:10:2"]])
def test_grid_without_compare_computes_no_exact_value(monkeypatch, capsys, argv):
    expected = run(argv, capsys)
    assert expected[0] == 0
    _refusing_routes(monkeypatch, argv[1], "without --compare")
    assert run(argv, capsys) == expected


@pytest.mark.parametrize("argv", [
    ["eddeg", "3", "--weights", "3", "--cap-bytes", "1000"],
    ["asympt", "discriminant", "5", "3", "--cap-bytes", "1"],
])
def test_cap_budget_guards_the_closed_forms(capsys, argv):
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert "closed form" in err
    assert run(argv[:-2], capsys)[0] == 0


@pytest.mark.parametrize("n, omega", [(5000, 3), (20000, 3), (2000, 11), (5000, 100)])
def test_cap_model_bounds_the_closed_form_peak(n, omega):
    route = eddeg.route((n,), (omega,), False)
    assert route.name == "veronese-closed-form"
    _assert_charge_bounds(_traced_peak(route.call), route.peak)
    route = asympt.discriminant_route(n, omega)
    assert route.name == "discriminant-closed-form"
    _assert_charge_bounds(_traced_peak(route.call), route.peak)


def test_overflowed_estimate_is_valid_json(capsys):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code, out, _ = run(["asympt", "hyperdet", "3", "400", "--format", "json"], capsys)
    assert code == 0
    (record,) = json.loads(out, parse_constant=reject)
    assert record["result"] == "inf"
    assert run(["asympt", "hyperdet", "3", "400"], capsys)[1] == "inf\n"


# the first estimate each of these prints, and its log
LARGEST_FINITE_ESTIMATES = [
    ("binary 170", asympt.binary_asymptotics(170).log_hyperdet),
    ("sv 4 52 --omega 8", asympt.log_sv_hyperdet_asymptotic(4, 52, 8)),
    ("sv 5 36 --omega 11", asympt.log_sv_hyperdet_asymptotic(5, 36, 11)),
    ("sv 13 12 --omega 9", asympt.log_sv_hyperdet_asymptotic(13, 12, 9)),
    ("sv 14 11 --omega 9", asympt.log_sv_hyperdet_asymptotic(14, 11, 9)),
    ("sv 30 5 --omega 6", asympt.log_sv_hyperdet_asymptotic(30, 5, 6)),
]


@pytest.mark.parametrize("argv, log", LARGEST_FINITE_ESTIMATES,
                         ids=[argv for argv, _ in LARGEST_FINITE_ESTIMATES])
def test_an_estimate_below_the_largest_double_is_finite(capsys, argv, log):
    """The double, not a cut-off below it, decides where ``inf`` starts: each
    of these logs lies between 709 and log(sys.float_info.max)."""
    assert 709 < log < math.log(sys.float_info.max)
    expected = float(f"{math.exp(log):.12g}")
    code, out, err = run(["asympt", *argv.split()], capsys)
    assert (code, err) == (0, "")
    assert float(out.split()[0]) == expected
    code, out, err = run(["asympt", *argv.split(), "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)[0]["result"] == expected


def test_an_overflowed_log_estimate_prints_inf(capsys):
    """A logarithm that overflowed to inf itself, which ``math.exp`` returns
    without raising, prints ``inf`` too, and JSON stays standard."""
    d = "1" + "0" * 306
    assert math.isinf(asympt.binary_asymptotics(int(d)).log_hyperdet)
    code, out, _ = run(["asympt", "binary", d, "--format", "json"], capsys)
    assert code == 0
    assert [rec["result"] for rec in json.loads(out)[:3]] == ["inf"] * 3


@pytest.mark.parametrize("d, grid, top", [("3", "5," + "9" * 400, "9" * 400),
                                          ("3", "9" * 400 + ",5", "9" * 400),
                                          ("1" + "0" * 400, "5,6", "6")],
                         ids=["last-n", "first-n", "huge-d"])
def test_estimate_overflow_names_d_and_the_largest_grid_value(capsys, d, grid, top):
    code, out, err = run(["asympt", "hyperdet", d, grid], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: factor count d={d} and grid value n={top} are too large "
                   "for a float estimate\n")


E308 = "1" + "0" * 308


@pytest.mark.parametrize("formula, d, n", [("hyperdet", "3", E308), ("ed", "3", E308),
                                           ("hyperdet", E308, "5"), ("ed", E308, "5")],
                         ids=["hyperdet-n", "ed-n", "hyperdet-d", "ed-d"])
def test_an_argument_below_the_largest_double_gives_an_estimate(capsys, formula, d, n):
    """d = 10^308 or n = 10^308 is below sys.float_info.max, so the estimate
    is read, and it overflows to ``inf`` (or ``nan``), which prints ``inf``."""
    assert run(["asympt", formula, d, n], capsys) == (0, "inf\n", "")
    code, out, err = run(["asympt", formula, d, n, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == [{"command": "asympt", "note": "",
                                "parameters": {"d": d, "formula": formula, "n": n},
                                "result": "inf"}]


@pytest.mark.parametrize("argv, message", [
    (["binary", "{}"], "factor count d={} is too large for a float estimate"),
    (["hyperdet", "3", "{}"], "factor count d=3 and grid value n={} are too large "
                              "for a float estimate"),
    (["ed", "{}", "5"], "factor count d={} and grid value n=5 are too large "
                        "for a float estimate"),
], ids=["binary-d", "hyperdet-n", "ed-d"])
def test_the_size_rule_is_the_largest_double(capsys, argv, message):
    """An integer equal to sys.float_info.max is read; one more is refused,
    although ``float`` would round it down to the same double."""
    top = int(sys.float_info.max)
    assert run(["asympt", *(a.format(top) for a in argv)], capsys)[::2] == (0, "")
    code, out, err = run(["asympt", *(a.format(top + 1) for a in argv)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(top + 1)}\n"


def test_tables_fill_in_process(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        pytest.fail("a table fill started a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    for name in cli._TABLES:
        base = run(["table", name, "--jobs", "1"], capsys)
        for jobs in ("2", "8"):
            assert run(["table", name, "--jobs", jobs], capsys) == base


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(["hyperdet", "1,1,2", "--format", "json", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["result"] == "6"


@pytest.mark.parametrize("argv", [["hyperdet", "1,1,1"], ["table", "table2"]],
                         ids=["hyperdet", "table2"])
def test_out_path_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys, argv):
    # an empty path is a path that cannot be opened, not a request for stdout
    for target in (tmp_path / "missing" / "x", tmp_path, ""):
        for spelling in (["--out", str(target)], [f"--out={target}"]):
            code, out, err = run([*argv, *spelling], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert repr(str(target)) in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_failure_is_a_usage_error(capsys):
    code, out, err = run(["hyperdet", "1,1,1", "--out", "/dev/full"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'/dev/full'" in err


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("argv", [
    ["hyperdet", "1,1,1"],
    ["eddeg", "1,2"],
    ["table", "dual-example"],
    ["verify", "cross-oracle", "--max", "3"],
    ["asympt", "hyperdet", "3", "5:7", "--compare"],
], ids=lambda argv: argv[0])
def test_timing_is_one_stderr_line_and_keeps_stdout(capsys, argv, fmt):
    argv = [*argv, "--format", fmt]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    code, timed_out, timed_err = run([*argv, "--timing"], capsys)
    assert (code, timed_out) == (0, out)
    assert re.fullmatch(rf"timing: {argv[0]} \d+\.\d+ ms\n", timed_err)


def test_verify_honours_format_and_out(tmp_path, capsys):
    target = tmp_path / "verify.json"
    code, out, _ = run(["verify", "cross-oracle", "--max", "3", "--format", "json",
                        "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    (summary,) = json.loads(target.read_text())
    assert summary["command"] == "verify"
    assert summary["result"] == "ok"
    assert summary["parameters"] == {"suite": "cross-oracle", "max": "3",
                                     "checked": "6", "failures": "0"}
    code, out, _ = run(["verify", "cross-oracle", "--max", "3", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["command,parameters,result,note",
                                "verify,checked=6;failures=0;max=3;suite=cross-oracle,ok,"]


def _perturbed_at(monkeypatch, name, key, where):
    """Add 1 to polar.<name>'s value wherever ``key(*args) == where``."""
    original = getattr(polar, name)
    monkeypatch.setattr(polar, name, lambda *a: original(*a) + (key(*a) == where))


def _identity_row(n):
    """(-1)^k C(n+2, k+1), k = 0..n+2: the row whose running sums hold the
    alternating dots of n and f(n+1, m)."""
    return [(-1) ** k * math.comb(n + 2, k + 1) for k in range(n + 3)]


def _perturbed_round(monkeypatch, row, t, j):
    """Add 1 to entry j of round t of every polar._running_sums over ``row``."""
    original = polar._running_sums

    def perturbed(r, passes):
        rounds = original(r, passes)
        if list(r) == row:
            rounds[t][j] += 1
        return rounds

    monkeypatch.setattr(polar, "_running_sums", perturbed)


def test_verify_failures_in_every_format(monkeypatch, capsys):
    # f(3, 0), entry 4 of round 1 of row 2, is summed once, for the recurrence of
    # row 2, the last of --max 2
    _perturbed_round(monkeypatch, _identity_row(2), 1, 4)
    code, out, _ = run(["verify", "identities", "--max", "2"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL f identity failed at n=2 m=0"
    assert lines[1].startswith("verify identities: FAILED (checked=")
    assert lines[1].endswith(", failures=1, max=2)")
    code, out, _ = run(["verify", "identities", "--max", "2", "--format", "json"], capsys)
    assert code == 1
    fail, summary = json.loads(out)
    assert (fail["result"], fail["note"]) == ("FAIL", "f identity failed at n=2 m=0")
    assert summary["result"] == "FAILED"
    assert summary["parameters"]["failures"] == "1"


def test_verify_identities_reports_a_wrong_alternating_dot_for_every_case_that_reads_it(
        monkeypatch, capsys):
    # the alternating dot of n = 3 and low = 2 is low times entry 3 of round 3 of row 3
    _perturbed_round(monkeypatch, _identity_row(3), 3, 3)
    code, out, _ = run(["verify", "identities", "--max", "4"], capsys)
    assert code == 1
    assert out.splitlines()[:4] == [
        "FAIL binomial identity failed at n=3 m=1 i=0",
        "FAIL binomial identity failed at n=3 m=2 i=1",
        "FAIL binomial identity failed at n=3 m=3 i=2",
        "verify identities: FAILED (checked=140, failures=3, max=4)",
    ]


def test_verify_identities_reports_a_wrong_g_value_in_both_rows_that_read_it(monkeypatch,
                                                                              capsys):
    _perturbed_at(monkeypatch, "_g_dot", lambda weights, j, _: (len(weights) - 1, j), (3, 2))
    code, out, _ = run(["verify", "identities", "--max", "4"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FAIL g identity failed at n=2 j=2",
        "FAIL g identity failed at n=3 j=2",
        "verify identities: FAILED (checked=140, failures=2, max=4)",
    ]


def test_verify_identities_lists_alpha_ratio_witnesses_by_m_d_n_i(monkeypatch, capsys):
    original = polar._alpha_dots

    def perturbed(n, degrees, top):
        rows = original(n, degrees, top)
        if n == 3:
            rows[0][0] += 1  # S(3, low=1, d=2), read by alpha_m(3, m, 2) for every m
        return rows

    monkeypatch.setattr(polar, "_alpha_dots", perturbed)
    code, out, _ = run(["verify", "identities", "--max", "4"], capsys)
    assert code == 1
    # row 3 is alpha(n+1) of the cases n = 2 and alpha(n) of the cases n = 3
    witnesses = [(2, 0, 2, 0), (3, 0, 2, 0), (2, 1, 2, 1), (3, 1, 2, 1),
                 (2, 2, 2, 2), (3, 2, 2, 2), (3, 3, 2, 3)]
    assert out.splitlines() == [
        *(f"FAIL alpha ratio failed at (n, m, d, i)={w}" for w in witnesses),
        "verify identities: FAILED (checked=140, failures=7, max=4)",
    ]


def test_verify_identities_maps_an_alpha_ratio_witness_at_low_2_and_d_3(monkeypatch, capsys):
    original = polar._alpha_dots

    def perturbed(n, degrees, top):
        rows = original(n, degrees, top)
        if n == 4:
            rows[1][1] += 1  # S(4, low=2, d=3), read by alpha_{m-1}(4, m, 3) for m >= 1
        return rows

    monkeypatch.setattr(polar, "_alpha_dots", perturbed)
    code, out, _ = run(["verify", "identities", "--max", "5"], capsys)
    assert code == 1
    # row 4 is alpha(n+1) of the cases n = 3 and alpha(n) of the cases n = 4, with i = m - 1
    witnesses = [(3, 1, 3, 0), (4, 1, 3, 0), (3, 2, 3, 1), (4, 2, 3, 1),
                 (3, 3, 3, 2), (4, 3, 3, 2), (4, 4, 3, 3)]
    assert out.splitlines() == [
        *(f"FAIL alpha ratio failed at (n, m, d, i)={w}" for w in witnesses),
        "verify identities: FAILED (checked=232, failures=7, max=5)",
    ]


def _sum_calls(monkeypatch, names_and_keys):
    """Count the calls of each polar.<name> by ``key(*args)``."""
    counts = {name: Counter() for name, _ in names_and_keys}
    for name, key in names_and_keys:
        original = getattr(polar, name)

        def counted(*a, _original=original, _count=counts[name], _key=key):
            _count[_key(*a)] += 1
            return _original(*a)

        monkeypatch.setattr(polar, name, counted)
    return counts


def test_verify_identities_sums_each_defining_series_once(monkeypatch, capsys):
    top = 22
    counts = _sum_calls(monkeypatch, [
        ("_running_sums", lambda row, passes: (tuple(row), passes)),
        ("_hypersurface_chern_coeffs", lambda n, d: (n, d)),
        ("_g_weights", lambda n: n),
        ("_g_dot", lambda weights, j, _: (len(weights) - 1, j)),
    ])
    run(["verify", "identities", "--max", str(top)], capsys)
    first = {name: Counter(c) for name, c in counts.items()}
    for c in counts.values():
        c.clear()
    assert run(["verify", "identities", "--max", str(top)], capsys)[0] == 0
    assert counts == first  # no cache: the second run does the same work

    # one set of rounds per n for the identity rows, through low = n + 1 and f(n+1, n+1),
    # after f(0, 0) from the row of n = -1; one per (n, d) for the alpha rows, whose row
    # n = top is read only as alpha(n+1) of n = top - 1, through low = min(n, top - 1) + 1
    wanted = Counter({(tuple(_identity_row(-1)), 1): 1})
    for n in range(top + 1):
        wanted[tuple(_identity_row(n)), n + 2] += 1
        for d in range(2, 6):
            # (-1)^k g_k for the y^k coefficient g_k of (1+y)^(n+2) / (1+dy)
            signed = tuple((-1) ** k * sum(math.comb(n + 2, j) * (-d) ** (k - j)
                                           for j in range(k + 1)) for k in range(n + 1))
            wanted[signed, min(n, top - 1) + 2] += 1
    assert counts["_running_sums"] == wanted
    assert counts["_hypersurface_chern_coeffs"] == Counter(
        (n, d) for n in range(top + 1) for d in range(2, 6))
    # G(n, j) for every row n <= top and the n values of row top + 1
    assert counts["_g_weights"] == Counter(range(1, top + 2))
    assert counts["_g_dot"] == Counter(
        (n, j) for n in range(top + 2) for j in range(1, min(n, top) + 1))


def test_jobs_must_be_a_positive_integer(monkeypatch, capsys):
    for argv in (["--jobs", "-3"], ["--jobs", "0"], ["--jobs", "x"]):
        code, out, err = run(["hyperdet", "1,1,1", *argv], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err
    # SEGRE_DEGREES_JOBS is not read, so no value of it can fail a run
    base = run(["table", "dual-example", "--format", "csv"], capsys)
    monkeypatch.setenv("SEGRE_DEGREES_JOBS", "abc")
    assert run(["table", "dual-example", "--format", "csv"], capsys) == base
    assert base[0] == 0


def test_verify_max_has_a_minimum_per_suite(capsys):
    for suite, minimum in (("identities", 0), ("rw-constants", 3),
                           ("stabilization", 1), ("cross-oracle", 1)):
        code, out, err = run(["verify", suite, "--max", str(minimum - 1)], capsys)
        assert code == 2
        assert out == ""
        assert f"at least {minimum}" in err
    for suite, maximum in (("identities", 100), ("rw-constants", 200),
                           ("stabilization", 15), ("cross-oracle", 20)):
        assert cli._SUITES[suite][1] <= maximum
        code, out, err = run(["verify", suite, "--max", str(maximum + 1)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --max for {suite} must be at most {maximum}, got {maximum + 1}\n"
    code, out, _ = run(["verify", "cross-oracle", "--max", "1"], capsys)
    assert code == 0
    assert out == "verify cross-oracle: ok (checked=1, failures=0, max=1)\n"


def test_verification_error_exits_1(monkeypatch, capsys):
    def broken(dims, weight=1):
        raise VerificationError("not an integer")

    monkeypatch.setattr(hyperdet, "sv_hyperdet_degree", broken)
    code, out, err = run(["hyperdet", "1,1,1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: not an integer\n"


def test_stabilization_failure_is_a_verification_failure(monkeypatch, capsys):
    """One wrong ED degree, of (1, 1) x P^5: the fold of P^5 onto the once-folded base
    (1, 1), which ``stabilization_onset`` reads, gains 1."""
    original = eddeg.multinomial_fold
    wrong = [original(eddeg._frobenius_factor(n) for n in (1, 1)), eddeg._frobenius_factor(5)]

    def fold(factors):
        factors = list(factors)
        return [v + (factors == wrong and s == 0) for s, v in enumerate(original(factors))]

    monkeypatch.setattr(eddeg, "multinomial_fold", fold)
    with pytest.raises(VerificationError, match="failed to stabilize"):
        eddeg.stabilization_onset((1, 1), 5)
    code, out, _ = run(["verify", "stabilization", "--max", "2"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL ED degree of (1, 1) x P^m failed to stabilize for m >= 2")
    assert lines[1].startswith("verify stabilization: FAILED (checked=")
    assert lines[1].endswith(", failures=1, max=2)")
    # both ED tables check each row as they print it
    for name in ("table2", "stabilization"):
        code, out, err = run(["table", name], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ED degree of (1, 1) x P^m failed to stabilize for m >= 2")
        assert err.count("\n") == 1


def test_verify_cross_oracle_reports_a_wrong_degree(monkeypatch, capsys):
    """A zero degree on a non-defective format is a dual degree mismatch only: the criterion
    is checked against the polar dual codimension, not against the degree."""
    original = cli.hyperdet_degree
    monkeypatch.setattr(cli, "hyperdet_degree",
                        lambda dims: 0 if dims == (1, 1, 1) else original(dims))
    code, out, _ = run(["verify", "cross-oracle", "--max", "3"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FAIL dual degree mismatch for (1, 1, 1): series 0, polar 4",
        "verify cross-oracle: FAILED (checked=6, failures=1, max=3)"]


def test_verify_cross_oracle_reports_a_wrong_criterion(monkeypatch, capsys):
    original = cli.is_dual_nondefective
    monkeypatch.setattr(cli, "is_dual_nondefective",
                        lambda dims: original(dims) and tuple(dims) != (1, 1, 1))
    code, out, _ = run(["verify", "cross-oracle", "--max", "3"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FAIL defectiveness disagreement for (1, 1, 1): degree 4",
        "verify cross-oracle: FAILED (checked=6, failures=1, max=3)"]


def _plus_one(pair):
    """The reduced pair of pair + 1."""
    num, den = pair
    return num + den, den


def test_verify_rw_constants_sees_a_wrong_mixed_partial(monkeypatch, capsys):
    original = asympt.mixed_partial_at_symmetric_point
    monkeypatch.setattr(asympt, "mixed_partial_at_symmetric_point",
                        lambda d, k: _plus_one(original(d, k)) if k == 2 else original(d, k))
    code, out, _ = run(["verify", "rw-constants", "--max", "6"], capsys)
    assert code == 1
    assert out.splitlines() == [
        *(f"FAIL mixed partial mismatch for d={d}: {1 - 2 * Fraction(d, d - 1) ** (d - 3)}"
          for d in range(3, 7)),
        "verify rw-constants: FAILED (checked=4, failures=4, max=6)"]


@pytest.mark.parametrize("name, perturb, message", [
    # the empty subset's term of H(c) (d-1)^d, at every d
    ("_subset_term", lambda f: lambda d, size: f(d, size) + (size == 0),
     lambda d: f"denominator does not vanish at the symmetric point for d={d}"),
    ("mixed_partial_at_symmetric_point",
     lambda f: lambda d, k: _plus_one(f(d, k)) if k == 1 else f(d, k),
     lambda d: f"last partial mismatch for d={d}: {1 - Fraction(d, d - 1) ** (d - 2)}"),
    ("_q", lambda f: lambda *a: _plus_one(f(*a)),
     lambda d: f"q mismatch for d={d}: {Fraction(d - 2, d) + 1}"),
    ("_hessian_det", lambda f: lambda *a: _plus_one(f(*a)),
     lambda d: f"Hessian determinant mismatch for d={d}: "
               f"{Fraction((d - 2) ** (d - 1), d ** (d - 2)) + 1}"),
    ("_leading_constant", lambda f: lambda *a: _plus_one(f(*a)),
     lambda d: f"leading constant mismatch for d={d}: "
               f"{Fraction((d - 1) ** (2 * d - 2), d ** (2 * d - 4)) + 1}"),
], ids=["denominator", "last-partial", "q", "hessian", "leading"])
def test_verify_rw_constants_sees_each_wrong_constant(monkeypatch, capsys, name, perturb,
                                                      message):
    """Each check is live, and its message prints the value as a ``Fraction``."""
    monkeypatch.setattr(asympt, name, perturb(getattr(asympt, name)))
    code, out, _ = run(["verify", "rw-constants", "--max", "6"], capsys)
    assert code == 1
    assert out.splitlines() == [
        *(f"FAIL {message(d)}" for d in range(3, 7)),
        "verify rw-constants: FAILED (checked=4, failures=4, max=6)"]


def test_verify_rw_constants_runs_to_its_maximum(capsys):
    assert run(["verify", "rw-constants", "--max", "200"], capsys) == (
        0, "verify rw-constants: ok (checked=198, failures=0, max=200)\n", "")


def _perturbed(fn, args):
    """fn with 1 added to its value at args."""
    return lambda *a: fn(*a) + (a == args)


def _c63_read_twice(running_sums):
    """running_sums with the binomial C(6, 3) one too large: entry j of round 4 is
    sum_k row[k] C(3+j-k, 3), so it reads its term k = j - 3 once more."""
    def perturbed(row, passes):
        rounds = running_sums(row, passes)
        if passes >= 4:
            rounds[4] = [v + (row[j - 3] if j >= 3 else 0) for j, v in enumerate(rounds[4])]
        return rounds

    return perturbed


@pytest.mark.parametrize("term, args, first_failure", [
    # one term of G(4, j): the s = 2 falling factorial 5!/3!
    ("perm", ("perm", lambda f: _perturbed(f, (5, 2))), "g identity failed at n=3 j=1"),
    # C(6, 3) is a term of the alternating, f and alpha sums
    ("comb", ("_running_sums", _c63_read_twice), "binomial identity failed at n=3 m=2 i=0"),
])
def test_verify_identities_sees_one_perturbed_term(monkeypatch, capsys, term, args,
                                                     first_failure):
    """``args`` names the polar function that holds the wrong ``term`` and wraps it."""
    name, wrong = args
    monkeypatch.setattr(polar, name, wrong(getattr(polar, name)))
    code, out, _ = run(["verify", "identities", "--max", "6"], capsys)
    assert code == 1
    assert out.startswith(f"FAIL {first_failure}\n")
    assert "verify identities: FAILED" in out


@pytest.mark.parametrize("module, name, wrong", [
    (math, "comb", lambda f: lambda a, k: f(a, k) + ((a, k) == (2, 1))),
    (combinat, "binomial_row",
     lambda f: lambda a: [c + ((a, k) == (2, 1)) for k, c in enumerate(f(a))]),
], ids=["polar", "combinat"])
def test_verify_cross_oracle_sees_one_wrong_row_in_either_route(monkeypatch, capsys, module,
                                                                   name, wrong):
    """The polar route builds its rows from ``math.comb``, the series route from
    ``combinat.binomial_row`` through ``combinat.segre_fold``; a row wrong in one route only
    (C(2, 1) = 3) makes them disagree."""
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    code, out, _ = run(["verify", "cross-oracle", "--max", "4"], capsys)
    assert code == 1
    assert any(line.startswith("FAIL dual degree mismatch") for line in out.splitlines())


def test_verify_cross_oracle_sees_a_fold_that_keeps_its_zeros(monkeypatch, capsys):
    """A fold doubled on every three-factor format keeps every zero, so the
    defectiveness check cannot see it; the polar route builds its class degrees
    without the fold, so the dual degree comparison does."""
    original = combinat.multinomial_fold

    def doubled(factors):
        rows = list(factors)
        g = original(rows)
        return [2 * v for v in g] if len(rows) == 3 else g

    for module in (combinat, eddeg, polar):
        monkeypatch.setattr(module, "multinomial_fold", doubled)
    assert cli.hyperdet_degree((2, 2, 2)) == 72
    code, out, _ = run(["verify", "cross-oracle", "--max", "7"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "FAIL dual degree mismatch for (2, 2, 2): series 72, polar 36" in lines
    assert not any(line.startswith("FAIL defectiveness") for line in lines)
    assert lines[-1].startswith("verify cross-oracle: FAILED (checked=44, ")


def test_verify_rw_constants_sees_one_perturbed_term(monkeypatch, capsys):
    original = asympt._subset_term
    # add 1 to the term of the full subset, x1*...*xd, of the d = 5 sum H(c) (d-1)^d
    monkeypatch.setattr(asympt, "_subset_term",
                        lambda d, size: original(d, size) + ((d, size) == (5, 5)))
    code, out, _ = run(["verify", "rw-constants", "--max", "6"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FAIL denominator does not vanish at the symmetric point for d=5",
        "verify rw-constants: FAILED (checked=4, failures=1, max=6)"]


def test_verify_rw_constants_sums_one_term_per_subset_size(monkeypatch, capsys):
    calls = []
    original = asympt._subset_term

    def counted(d, size):
        calls.append((d, size))
        return original(d, size)

    monkeypatch.setattr(asympt, "_subset_term", counted)
    assert run(["verify", "rw-constants", "--max", "11"], capsys)[0] == 0
    # d + 1 sizes for each d = 3..11, where all 2^d subsets would be 4088 terms
    assert len(calls) == sum(d + 1 for d in range(3, 12)) == 72


def test_verify_rw_constants_builds_no_ring(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the truncated ring is on a production path")

    for name, value in list(vars(TruncatedPoly).items()):
        if isinstance(value, property):
            monkeypatch.setattr(TruncatedPoly, name, property(refuse))
        elif isinstance(value, classmethod) or callable(value):
            monkeypatch.setattr(TruncatedPoly, name, refuse)
    code, out, _ = run(["verify", "rw-constants", "--max", "11"], capsys)
    assert code == 0
    assert out == "verify rw-constants: ok (checked=9, failures=0, max=11)\n"
