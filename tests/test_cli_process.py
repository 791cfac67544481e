"""The real process path: ``python -m segre_degrees.cli`` as a child process.

The other CLI tests call ``cli.main`` in process.  These start the module the
way a user or the benchmark does, through its ``__main__`` block and the entry
function ``cli.run``, which runs the ``atexit`` callbacks, flushes and ends the
process with ``os._exit``.  They check that the exit code, stdout and stderr
bytes are the ones ``cli.main`` gives in process.  They also hold the exit contract
when stdout cannot be written: a closed pipe, a full device or a closed fd 1
is a usage error (exit 2, one ``error:`` line), buffered or unbuffered.  A
stderr that cannot be written loses its ``timing:`` or ``error:`` line but
keeps the exit code.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import segre_degrees
from segre_degrees import cli
from segre_degrees.cli import main

SRC = Path(segre_degrees.__file__).resolve().parent.parent


def _child(argv, unbuffered=False, command=("-m", "segre_degrees.cli"), **popen):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    popen.setdefault("stdout", subprocess.PIPE)
    popen.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *command, *argv],
                          env=env, timeout=60, **popen)


@pytest.mark.parametrize("argv, exit_code", [
    pytest.param(["hyperdet", "1,1,1"], 0, id="hyperdet-plain"),
    pytest.param(["hyperdet", "1,1,1", "--format", "csv"], 0, id="hyperdet-csv"),
    pytest.param(["hyperdet", "1,1,1", "--format", "json"], 0, id="hyperdet-json"),
    pytest.param(["eddeg", "1,2"], 0, id="eddeg-plain"),
    pytest.param(["eddeg", "2,2", "--generic", "--format", "csv"], 0, id="eddeg-csv"),
    pytest.param(["eddeg", "1,2", "--format", "json"], 0, id="eddeg-json"),
    pytest.param(["table", "table2"], 0, id="table2"),
    pytest.param(["hyperdet", "1,x,3"], 2, id="usage-refusal"),
    pytest.param(["hyperdet", "3,3,3", "--cap-bytes", "1"], 3, id="cap-refusal"),
    pytest.param(["--help"], 0, id="help"),
])
def test_the_process_gives_the_bytes_and_code_of_main(capsys, argv, exit_code):
    assert main(argv) == exit_code
    captured = capsys.readouterr()
    done = _child(argv)
    assert (done.returncode, done.stdout, done.stderr) == (
        exit_code, captured.out.encode(), captured.err.encode())


# A child that caps its own address space at what it uses plus 128 MiB, then asks for a
# generic ED degree whose binomial row alone needs gigabytes, under a byte budget that admits it.
_OUT_OF_MEMORY = """\
import resource, sys
from segre_degrees import cli
limit = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize() + 2**27
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
sys.argv = ["segre-degrees", "eddeg", "1,1,400000", "--generic", "--cap-bytes", str(10**12)]
raise SystemExit(cli.run())
"""


def test_the_entry_point_runs_clean_in_dev_mode_with_warnings_as_errors():
    """The package registers every submodule lazily but ``cli``: runpy warns when the module
    ``-m`` runs is in ``sys.modules`` already, and pytest's ``filterwarnings = error`` does not
    reach a child process."""
    done = _child(["hyperdet", "1,1,1"],
                  command=("-X", "dev", "-W", "error", "-m", "segre_degrees.cli"))
    assert (done.returncode, done.stdout, done.stderr) == (0, b"4\n", b"")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the child reads /proc/self/statm and sets RLIMIT_AS")
def test_running_out_of_memory_exits_3_with_one_error_line():
    """A ``MemoryError`` is a resource cap, like a refusal of the byte budget: exit 3 and one
    ``error:`` line, not a traceback and exit 1, the code of a failed verification."""
    done = _child([], command=("-c", _OUT_OF_MEMORY))
    assert (done.returncode, done.stdout, done.stderr) == (3, b"", b"error: memory ran out\n")


def test_the_process_writes_out_file_bytes_of_main(tmp_path, capsys):
    argv = ["table", "stabilization", "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    target = tmp_path / "out.json"
    done = _child([*argv, "--out", str(target)])
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert target.read_bytes() == expected


def test_the_process_writes_one_timing_line(capsys):
    assert main(["hyperdet", "1,1,1"]) == 0
    expected = capsys.readouterr().out.encode()
    done = _child(["hyperdet", "1,1,1", "--timing"])
    assert (done.returncode, done.stdout) == (0, expected)
    assert re.fullmatch(rb"timing: hyperdet \d+\.\d{3} ms\n", done.stderr)


def _closed_pipe(stream="stdout"):
    read_end, write_end = os.pipe()
    os.close(read_end)
    return {stream: write_end}


def _full_device(stream="stdout"):
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    return {stream: os.open("/dev/full", os.O_WRONLY)}


def _closed_fd(stream="stdout"):
    fd = {"stdout": 1, "stderr": 2}[stream]
    return {stream: None, "preexec_fn": lambda: os.close(fd)}


def _child_with_sink(sink, stream, argv, unbuffered):
    popen = sink(stream)
    try:
        return _child(argv, unbuffered, **popen)
    finally:
        if popen[stream] is not None:
            os.close(popen[stream])


SINKS = pytest.mark.parametrize("sink", [_closed_pipe, _full_device, _closed_fd],
                                ids=["closed-pipe", "dev-full", "closed-fd"])


@pytest.mark.parametrize("argv", [["hyperdet", "1,1,1"], ["--help"]], ids=["hyperdet", "help"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@SINKS
def test_an_unwritable_stdout_is_a_usage_error(sink, unbuffered, argv):
    done = _child_with_sink(sink, "stdout", argv, unbuffered)
    assert done.returncode == 2
    assert done.stderr.startswith(b"error: cannot write stdout: ")
    assert done.stderr.count(b"\n") == 1


@pytest.mark.parametrize("argv, exit_code, stdout", [
    pytest.param(["hyperdet", "1,1,1", "--timing"], 0, b"4\n", id="timing"),
    pytest.param(["hyperdet", "1,x"], 2, b"", id="usage-refusal"),
    pytest.param(["hyperdet", "3,3,3", "--cap-bytes", "1"], 3, b"", id="cap-refusal"),
])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@SINKS
def test_an_unwritable_stderr_keeps_the_exit_code(sink, unbuffered, argv, exit_code, stdout):
    done = _child_with_sink(sink, "stderr", argv, unbuffered)
    assert (done.returncode, done.stdout) == (exit_code, stdout)


def _main_block_call(tree: ast.Module) -> str:
    """The name of the function that the ``__main__`` block of ``tree`` calls."""
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    (stmt,) = block.body
    return stmt.exc.args[0].func.id


def test_the_script_and_the_main_block_share_one_entry_function():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    cli_path = SRC / "segre_degrees" / "cli.py"
    entry = _main_block_call(ast.parse(cli_path.read_text(), str(cli_path)))
    assert project["scripts"] == {"segre-degrees": f"segre_degrees.cli:{entry}"}


# A child that registers an ``atexit`` callback, then leaves through the entry function the
# way ``python -m`` does; ``{before}`` runs first (a patch of the command table, or nothing).
_ENTRY = """\
import atexit, sys
from segre_degrees import cli
atexit.register(lambda: sys.stderr.write("atexit callback ran\\n"))
{before}
raise SystemExit(cli.run())
"""


def test_the_entry_function_runs_atexit_and_gives_the_bytes_of_main(capsys):
    """``run`` ends the process with ``os._exit`` once ``main`` returns, but first runs the
    ``atexit`` callbacks and flushes both streams, so their bytes and the exit code are those
    of ``main``, and the callback's line follows.  ``main`` itself returns: tests, replays and
    library callers run it many times in one process."""
    assert main(["hyperdet", "1,1,1"]) == 0
    expected = capsys.readouterr()
    done = _child(["hyperdet", "1,1,1"], command=("-c", _ENTRY.format(before="")))
    assert (done.returncode, done.stdout, done.stderr) == (
        0, expected.out.encode(), expected.err.encode() + b"atexit callback ran\n")
    assert main(["hyperdet", "1,1,1"]) == 0
    assert capsys.readouterr() == expected


def test_an_exception_out_of_main_ends_in_a_traceback_and_exit_1():
    """A bug that escapes ``main`` never reaches ``os._exit``: the interpreter prints the
    traceback, runs the ``atexit`` callbacks and exits 1."""
    patch = ("def boom(args):\n    raise RuntimeError('boom')\n"
             "cli._COMMANDS['hyperdet'] = (*cli._COMMANDS['hyperdet'][:1], boom, "
             "*cli._COMMANDS['hyperdet'][2:])")
    done = _child(["hyperdet", "1,1,1"], command=("-c", _ENTRY.format(before=patch)))
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.startswith(b"Traceback (most recent call last):\n")
    assert done.stderr.endswith(b"RuntimeError: boom\natexit callback ran\n")


@pytest.mark.parametrize("argv, exit_code", [
    pytest.param(["hyperdet", "1,1,1"], 0, id="hyperdet"),
    pytest.param(["hyperdet", "1,x"], 2, id="usage-refusal"),
    pytest.param(["hyperdet", "3,3,3", "--cap-bytes", "1"], 3, id="cap-refusal"),
])
def test_the_console_script_form_gives_the_bytes_and_code_of_the_module(argv, exit_code):
    """The ``segre-degrees`` script that an installer writes calls ``sys.exit(run())``."""
    script = _child(argv, command=("-c", "import sys; from segre_degrees.cli import run; "
                                         "sys.exit(run())"))
    module = _child(argv)
    assert module.returncode == exit_code
    assert (script.returncode, script.stdout, script.stderr) == (
        module.returncode, module.stdout, module.stderr)


def test_only_the_entry_function_ends_the_process():
    """``atexit._run_exitfuncs`` and ``os._exit`` appear only in the function the ``__main__``
    block calls, in the order exit functions, flush, ``_exit``; no module freezes the heap."""
    calls, entry_calls = [], []
    for path in sorted((SRC / "segre_degrees").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        entry = set()
        if path.name == "cli.py":
            name = _main_block_call(tree)
            (fn,) = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == name]
            entry = {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("_run_exitfuncs", "flush",
                                                                 "_exit", "freeze"):
                if id(node) in entry:
                    entry_calls.append((node.lineno, ast.unparse(node)))
                elif node.attr != "flush":
                    calls.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert calls == []
    assert [name for _, name in sorted(entry_calls)] == [
        "atexit._run_exitfuncs", "stream.flush", "os._exit"]
