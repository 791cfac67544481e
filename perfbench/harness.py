"""Running the CLI as a child process, and checking its output against pins."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"
OUT_DIR = Path(__file__).resolve().parent / "out"

# Variables that would change what a child computes or how it starts.
_SCRUBBED_ENV = ("SEGRE_DEGREES_JOBS", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "PYTHONSTARTUP",
                 "PYTHONOPTIMIZE", "PYTHONPROFILEIMPORTTIME", "PYTHONHOME", "PYTHONINSPECT")


def child_env() -> Dict[str, str]:
    """The caller's environment without the variables above, with only
    ``src`` on the path: no job count from the environment, and bytecode is
    cached so only the first import compiles."""
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    wall_ms: float
    exit_code: int
    stdout: bytes
    maxrss_kb: int


# Linux charges a child's ru_maxrss with the high-water RSS of the address
# space it was forked or vforked from, so a child spawned straight from this
# process would report at least this process's peak.  Children are therefore
# spawned by a bare interpreter (``-S -E``, importing only os, sys and time),
# whose peak stays below that of any Python child that imports the package.
# Protocol: a request is "nbytes\n" followed by the NUL-separated argv; the
# reply is "exit maxrss_kb wall_ns nbytes\n" followed by the child's stdout.
# The time covers spawn to reap.
_SPAWNER = r"""
import os, sys, time
env, read, reply = dict(os.environ), sys.stdin.buffer, sys.stdout.buffer
for line in read:
    argv = read.read(int(line)).split(b"\0")
    r, w = os.pipe()
    start = time.perf_counter_ns()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, w, 1),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
    os.close(w)
    chunks = []
    while chunk := os.read(r, 65536):
        chunks.append(chunk)
    os.close(r)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter_ns() - start
    out = b"".join(chunks)
    reply.write(b"%d %d %d %d\n" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss, elapsed, len(out)))
    reply.write(out)
    reply.flush()
"""


class Spawner:
    """Runs ``python args...`` children one at a time, each reaped with
    ``os.wait4`` so that its own max RSS is read."""

    def __init__(self, env: Dict[str, str]):
        self.proc = subprocess.Popen([sys.executable, "-S", "-E", "-c", _SPAWNER],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=str(ROOT))

    def run(self, args: Sequence[str]) -> ChildResult:
        request = b"\0".join(os.fsencode(a) for a in (sys.executable, *args))
        self.proc.stdin.write(b"%d\n" % len(request) + request)
        self.proc.stdin.flush()
        header = self.proc.stdout.readline()
        if not header:
            raise RuntimeError("the spawner process exited")
        exit_code, maxrss_kb, wall_ns, size = (int(x) for x in header.split())
        return ChildResult(wall_ns / 1e6, exit_code, self.proc.stdout.read(size), maxrss_kb)

    def cli(self, command: str) -> ChildResult:
        return self.run(["-m", "segre_degrees.cli", *command.split()])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_pins() -> Dict[str, dict]:
    with open(PINS_PATH) as fh:
        return json.load(fh)["cases"]


def matches_pin(command: str, exit_code: int, stdout: bytes, pins: Dict[str, dict]) -> bool:
    pin = pins[command]
    return exit_code == pin["exit"] and stdout == pin["stdout"].encode()


def check_source_tree() -> None:
    """Exit with code 2 when the program to measure is not in the checkout."""
    if not (SRC / "segre_degrees" / "cli.py").is_file():
        print(f"error: {SRC / 'segre_degrees' / 'cli.py'} not found; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree; read from the files so
    that no parent repository is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "segre_degrees").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "source_sha256_16": _source_digest(),
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]
