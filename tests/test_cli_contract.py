"""The command line contract, checked on seeded random command lines.

The grammar below is written from the README ("The grammar, one line per
subcommand", the integer rule and the option spellings), not read from the
parser's own table, so a drift between the two shows up as a broken draw.
Every draw runs in process through ``cli.main`` with a small ``--cap-bytes``
as its last option, and must keep the contract:

- the exit code is 0, 1, 2 or 3, and no exception escapes;
- on exit 2 or 3, stdout is empty and stderr is exactly one ``error:`` line;
- JSON output passes a strict ``json.loads``, CSV output parses into rows of
  one width, and plain output ends in a newline;
- a rerun gives the same bytes;
- on exit 0 or 1, the draw without its ``--out`` and ``--timing`` groups
  gives the same exit code, prints on stdout what ``--out`` wrote, and
  differs on stderr only by the one ``timing:`` line that ``--timing`` adds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import re

import pytest

from segre_degrees import cli

# subcommand -> (its positionals, its own options), as the README lists them
INT, INTS, GRID, TEXT, FLAG = "int", "ints", "grid", "text", "flag"
GRAMMAR = {
    "hyperdet": ([INTS], {"--omega": INT}),
    "eddeg": ([INTS], {"--generic": FLAG, "--weights": INTS}),
    "table": ([("table2", "stabilization", "dual-example")], {}),
    "verify": ([("identities", "rw-constants", "stabilization", "cross-oracle")],
               {"--max": INT}),
    "asympt": ([("hyperdet", "ed", "sv", "binary", "discriminant"), INT, GRID],
               {"--omega": INT, "--compare": FLAG}),
}
OPTIONAL = {"asympt": 1}  # how many positionals at the end may be left out
COMMON = {"--format": ("plain", "csv", "json"), "--out": TEXT, "--jobs": INT,
          "--cap-bytes": INT, "--timing": FLAG, "--help": FLAG}
# every option of every subcommand, so that each is also tried where it does not belong
OPTIONS = {**COMMON, **{name: takes for _, own in GRAMMAR.values() for name, takes in own.items()}}

EDGES = ["0", "-1", "+1", "1_0", " 1", "1e3", "²", "9" * 400, "", ",", "1:", "a:b:c",
         "--", "--=x"]
CAP_BYTES = 10_000
SEEDS = range(6)
DRAWS_PER_SEED = 250


def _integer(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(EDGES)
    return str(rng.randint(0, 64 if roll < 0.2 else 7))


def _integers(rng: random.Random) -> str:
    return ",".join(_integer(rng) for _ in range(rng.randint(1, 4)))


def _grid(rng: random.Random) -> str:
    a = rng.randint(1, 9)
    b = a + rng.randint(-2, 30)
    shapes = [_integer(rng), _integers(rng), f"{a}:{b}", f"{a}:{b}:{rng.randint(0, 3)}"]
    return rng.choice(EDGES) if rng.random() < 0.1 else rng.choice(shapes)


def _value(rng: random.Random, takes, out_paths: list[str]) -> str:
    if isinstance(takes, tuple):
        return rng.choice(EDGES + ["tableX"]) if rng.random() < 0.1 else rng.choice(takes)
    if takes == TEXT:
        return rng.choice(out_paths)
    return {INT: _integer, INTS: _integers, GRID: _grid}[takes](rng)


def _option(rng: random.Random, name: str, takes, out_paths: list[str]) -> list[str]:
    """One option, spelled as the README allows: in full or by a prefix (which
    may be ambiguous), ``-h`` for help, its value next or after ``=``, and a
    flag now and then given a value it must refuse."""
    typed = name
    if name == "--help" and rng.random() < 0.5:
        typed = "-h"
    elif rng.random() < 0.25:
        typed = name[:rng.randint(3, len(name))]
    if takes == FLAG:
        return [typed + "=1"] if rng.random() < 0.05 else [typed]
    value = _value(rng, takes, out_paths)
    if rng.random() < 0.3:
        return [f"{typed}={value}"]
    return [typed] if rng.random() < 0.03 else [typed, value]


def _draw(rng: random.Random, out_paths: list[str]) -> list[tuple[str | None, list[str]]]:
    """A command line as its groups of tokens, each with the option it spells
    (None for a command, a positional or a stray token)."""
    if rng.random() < 0.03:
        tokens = rng.choice([[], ["--help"], ["-h"], ["--"], ["bogus"], [rng.choice(EDGES)]])
        return [(None, [token]) for token in tokens]
    command = rng.choice(list(GRAMMAR))
    positionals, own = GRAMMAR[command]
    # the optional positionals, now and then one too few or one too many
    count = len(positionals) - rng.randint(0, OPTIONAL.get(command, 0))
    count += (rng.random() < 0.05) - (rng.random() < 0.05)
    groups = [(None, [_value(rng, takes, out_paths)]) for takes in positionals[:count]]
    if count > len(positionals):
        groups.append((None, [_integer(rng)]))
    roll = rng.random()
    pool = own if own and roll < 0.5 else COMMON if roll < 0.8 else OPTIONS
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        name = rng.choice(list(pool))
        groups.append((name, _option(rng, name, OPTIONS[name], out_paths)))
    if rng.random() < 0.04:
        groups.append((None, [rng.choice(EDGES)]))
    if rng.random() < 0.03:
        groups.append((None, ["--bogus"]))
    # options and positionals go in any order, the cap is the last option, and
    # now and then the last positional follows ``--``
    order = groups[:len(positionals)]
    after_dashes = order.pop() if order and rng.random() < 0.05 else None
    options = groups[len(positionals):]
    rng.shuffle(options)
    cut = rng.randint(0, len(options))
    drawn = [(None, [command]), *options[:cut], *order, *options[cut:],
             ("--cap-bytes", [f"--cap-bytes={CAP_BYTES}"])]
    return drawn if after_dashes is None else [*drawn, (None, ["--"]), after_dashes]


def _argv(groups: list[tuple[str | None, list[str]]]) -> list[str]:
    return [token for _, tokens in groups for token in tokens]


def _run(argv: list[str], out_file: str) -> tuple[int, str, str, str | None]:
    """Exit code, stdout, stderr with the milliseconds of each ``timing:`` line
    masked, and the text of the ``--out`` file if the run wrote one."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - the contract forbids any
            pytest.fail(f"{argv!r} raised {exc!r}")
    written = None
    if os.path.exists(out_file):
        with open(out_file) as fh:
            written = fh.read()
        os.remove(out_file)
    err = re.sub(r"^(timing: \S+) \d+\.\d{3} ms$", r"\1 <ms> ms", stderr.getvalue(), flags=re.M)
    return code, stdout.getvalue(), err, written


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def _check_format(argv: list[str], text: str) -> None:
    fmt = getattr(cli.parse_args(argv), "format", "plain")  # a --help request has none
    if fmt == "json":
        json.loads(text, parse_constant=_reject_constant)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
        assert rows and len({len(row) for row in rows}) == 1, (argv, text)
    assert text.endswith("\n"), (argv, text)


def _check_without_out_and_timing(groups, first, out_file: str) -> None:
    """Rerun a draw without every group of ``--out`` and ``--timing``: the
    same exit code, the ``--out`` text on stdout, and stderr without the one
    ``timing:`` line of a run that asked for it and reached its end."""
    argv = _argv(groups)
    code, out, err, written = first
    kept = [group for group in groups if group[0] not in ("--out", "--timing")]
    rerun_code, rerun_out, rerun_err, rerun_written = rerun = _run(_argv(kept), out_file)
    assert (rerun_code, rerun_out, rerun_written) == (code, out + (written or ""), None), \
        (argv, first, rerun)
    timed = cli.parse_args(argv).timing and not rerun_err.startswith("error: ")
    assert err == rerun_err + (f"timing: {argv[0]} <ms> ms\n" if timed else ""), (argv, first)


def test_random_command_lines_keep_the_contract(tmp_path):
    out_file = str(tmp_path / "out.txt")
    out_paths = [out_file, "", str(tmp_path / "missing" / "out.txt")]
    codes, wrote, timed = set(), 0, 0
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(DRAWS_PER_SEED):
            groups = _draw(rng, out_paths)
            argv = _argv(groups)
            first = _run(argv, out_file)
            code, out, err, written = first
            codes.add(code)
            assert code in (0, 1, 2, 3), (seed, argv, first)
            if code in (2, 3):
                assert out == "" and written is None, (seed, argv, first)
                assert err.startswith("error: ") and err.count("\n") == 1 \
                    and err.endswith("\n"), (seed, argv, first)
            else:
                assert out == "" or written is None, (seed, argv, first)
                text = out or written
                assert text or code == 1, (seed, argv, first)
                if text:
                    _check_format(argv, text)
            assert _run(argv, out_file) == first, (seed, argv)
            if code in (0, 1) and any(name in ("--out", "--timing") for name, _ in groups):
                _check_without_out_and_timing(groups, first, out_file)
                wrote, timed = wrote + (written is not None), timed + ("timing: " in err)
    # the draws reach success and both refusals, not only usage errors
    assert {0, 2, 3} <= codes, codes
    # and the reruns see both an --out file and a timing: line
    assert wrote and timed, (wrote, timed)
