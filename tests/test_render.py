"""``cli._render`` writes JSON and CSV itself; these tests hold it to the bytes of the
standard library's writers, which it replaces: ``json.dumps`` with the arguments below and
``csv.writer`` with a ``"\\n"`` line terminator.  It writes only what a record holds: text of
printable ASCII without ``"`` or ``\\``, integers, finite floats (JSON only), lists and dicts;
any other value is a bug and raises."""

import csv
import io
import json
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import segre_degrees.cli as cli
import segre_degrees.hyperdet as hyperdet

JSON = SimpleNamespace(format="json")
CSV = SimpleNamespace(format="csv")

# every ASCII character (controls and DEL among them), then non-ASCII ones: Latin-1, a line
# separator, the last BMP character, lone surrogates and two astral characters
ALPHABET = ([chr(code) for code in range(0x80)]
            + ["\x80", "\xe9", "\u2028", "\uffff", "\ud800", "\udfff", "\U0001f600", "\U0010ffff"])
# the characters of a record's text, the comma that a CSV field is quoted for among them
RECORD_ALPHABET = [chr(code) for code in range(0x20, 0x7F) if chr(code) not in '"\\']
REFUSED_CHARACTERS = [c for c in ALPHABET if c not in RECORD_ALPHABET]
FLOATS = (5e-324, 1.5e300, -1.5e300, 2.2250738585072014e-308, 0.1, -0.0, 0.0, 1e16, 12345.678)
# values no record holds, each refused by both writers: the JSON constants, texts with a
# character of each kind outside the record alphabet, and types the writers never write
REFUSED = {"null": None, "true": True, "false": False, "quote": 'say "hi"', "backslash": "C:\\dir",
           "newline": "a\nb", "carriage-return": "a\rb", "tab": "a\tb", "nul": "\x00",
           "del": "\x7f", "latin-1": "caf\xe9", "astral": "\U0001f600", "tuple": (1, 2),
           "complex": 1j}


def json_dumps(records):
    return json.dumps(records, sort_keys=True, separators=(", ", ": "), indent=1,
                      allow_nan=False) + "\n"


def csv_writer(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def draw_text(rng):
    return "".join(rng.choice(RECORD_ALPHABET) for _ in range(rng.randrange(9)))


def draw_value(rng, depth=0):
    """A record's value: text, an integer of up to 31 digits, a float, or, at the first three
    levels, a list or a dict of more of them."""
    kind = rng.randrange(5 if depth < 3 else 3)
    if kind == 0:
        return draw_text(rng)
    if kind == 1:
        return rng.choice([rng.randrange(-10 ** 30, 10 ** 30 + 1), 0, 1, -1])
    if kind == 2:
        return rng.choice(FLOATS + (rng.random() * 10.0 ** rng.randrange(-300, 300),))
    if kind == 3:
        return [draw_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {draw_text(rng): draw_value(rng, depth + 1) for _ in range(rng.randrange(4))}


@pytest.mark.parametrize("seed", range(10))
def test_json_matches_json_dumps(seed):
    rng = random.Random(seed)
    for _ in range(200):
        records = [draw_value(rng) for _ in range(rng.randrange(4))]
        assert cli._render(JSON, records) == json_dumps(records)


def test_json_of_every_character():
    """Each character of a record's alphabet is written as ``json.dumps`` and ``csv.writer``
    write it, and a text with any other is refused by both writers."""
    records = [{"text": "".join(RECORD_ALPHABET), "empty": "", "list": [], "dict": {}}]
    assert cli._render(JSON, records) == json_dumps(records)
    for c in RECORD_ALPHABET:
        assert cli._render(JSON, [{c: c}]) == json_dumps([{c: c}])
        assert cli._render(CSV, [], [[c, "x" + c]]) == csv_writer([[c, "x" + c]])
    for c in REFUSED_CHARACTERS:
        for records, rows in (([f"a{c}"], None), ([{f"a{c}": 1}], None), ([], [["1", f"{c}b"]])):
            with pytest.raises(TypeError, match="^a record cannot hold "):
                cli._render(CSV if rows else JSON, records, rows)


@pytest.mark.parametrize("seed", range(10))
def test_csv_matches_csv_writer(seed):
    rng = random.Random(seed)
    for _ in range(200):
        rows = [[rng.choice([draw_text(rng), rng.randrange(-10 ** 30, 10 ** 30)])
                 for _ in range(rng.randrange(5))] for _ in range(rng.randrange(5))]
        rows.insert(rng.randrange(len(rows) + 1), [""])
        assert cli._render(CSV, [], rows) == csv_writer(rows)


def test_a_row_of_one_empty_field_is_quoted():
    assert cli._render(CSV, [], [[""], [], ["", ""]]) == '""\n\n,\n'


def test_a_field_with_a_carriage_return_is_refused():
    with pytest.raises(TypeError, match="^a record cannot hold 'a\\\\rb'$"):
        cli._render(CSV, [], [["a\rb", "c"]])


@pytest.mark.parametrize("value", REFUSED.values(), ids=REFUSED)
def test_a_value_no_record_holds_is_refused_by_both_writers(value):
    """At any depth and as a key in JSON, and in any field of a CSV row, with ``TypeError``: a
    text or a ``bool`` (which ``operator.index`` reads as 0 or 1) as "a record cannot hold" it,
    any other type as ``operator.index`` refuses it."""
    match = "^a record cannot hold " if isinstance(value, (str, bool)) else None
    for records in ([value], [{"result": [1, {"note": value}]}], [{value: 1}]):
        with pytest.raises(TypeError, match=match):
            cli._render(JSON, records)
    for row in ([value], ["x", 1, value]):
        with pytest.raises(TypeError, match=match):
            cli._render(CSV, [], [["a"], row])


def test_a_float_is_refused_in_a_csv_field():
    """A CSV row holds text and integers; a float reaches CSV only as text."""
    with pytest.raises(TypeError):
        cli._render(CSV, [], [["a", 0.5]])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_refused_value_in_a_record_is_not_caught_by_main(fmt, monkeypatch):
    """A record that holds a ``bool`` is a bug: ``main`` lets its ``TypeError`` out, so the
    process ends with a traceback and exit 1."""
    real = cli._record
    monkeypatch.setattr(cli, "_record",
                        lambda *args, **extra: dict(real(*args, **extra), note=True))
    with pytest.raises(TypeError, match="^a record cannot hold True$"):
        cli.main(["hyperdet", "1,1,1", "--format", fmt])


@pytest.fixture
def wrong_degree(monkeypatch):
    """A zero degree for (1, 1, 1), which ``verify cross-oracle`` reports as a failure."""
    original = hyperdet.hyperdet_degree
    monkeypatch.setattr(hyperdet, "hyperdet_degree",
                        lambda dims: 0 if dims == (1, 1, 1) else original(dims))


FAIL_LINE = "dual degree mismatch for (1, 1, 1): series 0, polar 4"


def test_a_failed_verify_report_in_json(wrong_degree, capsys):
    code = cli.main(["verify", "cross-oracle", "--max", "3", "--format", "json"])
    params = {"max": "3", "suite": "cross-oracle"}
    assert (code, capsys.readouterr().out) == (1, json_dumps([
        {"command": "verify", "note": FAIL_LINE, "parameters": params, "result": "FAIL"},
        {"command": "verify", "note": "", "parameters": dict(params, checked="6", failures="1"),
         "result": "FAILED"}]))


def test_a_failed_verify_report_in_csv(wrong_degree, capsys):
    code = cli.main(["verify", "cross-oracle", "--max", "3", "--format", "csv"])
    assert (code, capsys.readouterr().out) == (1, csv_writer([
        ["command", "parameters", "result", "note"],
        ["verify", "max=3;suite=cross-oracle", "FAIL", FAIL_LINE],
        ["verify", "checked=6;failures=1;max=3;suite=cross-oracle", "FAILED", ""]]))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_float_is_an_overflow_error(value):
    """As ``allow_nan=False`` refuses it, the writer refuses a non-finite float, at any depth,
    with an error that the command line does not catch."""
    for records in ([value], [{"result": [1, value]}]):
        with pytest.raises(OverflowError, match="^JSON cannot hold the float "):
            cli._render(JSON, records)
    assert not any(issubclass(OverflowError, caught) for caught in cli._EXIT_CODES)


def test_a_non_finite_float_in_a_record_exits_1_with_a_traceback():
    """A record that holds a NaN is a bug: the process ends with a traceback and exit 1, and
    writes nothing on stdout."""
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})",
        "sys.argv[1:] = ['asympt', 'binary', '8', '--format', 'json']",
        "import segre_degrees.asympt as asy, segre_degrees.cli as cli",
        "real = asy.binary_asymptotics",
        "asy.binary_asymptotics = lambda d: real(d)._replace(ratio_frobenius=float('nan'))",
        "cli.run()",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("Traceback")
    assert done.stderr.endswith("OverflowError: JSON cannot hold the float nan\n")
