"""The library contract, checked on seeded random calls.

Every public function of the library (the functions and classes in the ``__all__`` of
``combinat``, ``hyperdet``, ``eddeg``, ``polar`` and ``asympt`` but its exceptions, and the
route builders and estimates of ``asympt.FORMULAS``) is called with arguments drawn for its
parameters by annotation, a ``str`` one from formula names, and one draw in five of any kind:
small, negative and huge integers (10^400, and ±10^5000, past the default int -> str limit of
4300 digits), bools, floats (inf and nan among them), ``None``, strings and tuples.  Each call
must return, or raise one of:

- ``UsageError``, the package's refusal of a value, or ``TypeError``, of a type;
- ``VerificationError``, an identity that fails to hold;
- ``MemoryError``, or the alarm that ends each call after ``ALARM_S``: the value or sweep the
  call asks for is too large to finish;
- an exception its docstring names (``DOCUMENTED``).

All calls run in one child process, this file run as a script, under ``RLIMIT_AS``: a call
that asks for too much memory raises ``MemoryError`` there without growing the test process.
The child runs at the parent's ``-O`` level, so that the ``-OO`` replay checks a library with
its asserts and docstrings stripped.  The test is skipped where the platform has no
``RLIMIT_AS``.
"""

import inspect
import itertools
import os
import random
import re
import signal
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

import segre_degrees
from segre_degrees import asympt, combinat, eddeg, hyperdet, polar
from segre_degrees.combinat import UsageError, VerificationError, show_int

SRC = Path(segre_degrees.__file__).resolve().parents[1]
MODULES = (combinat, hyperdet, eddeg, polar, asympt)
SEED = 3
DRAWS = 60  # per function
ALARM_S = 0.05
LIMIT_BYTES = 1 << 30

# function -> the exceptions its docstring names
DOCUMENTED = {
    combinat.rational: (ZeroDivisionError,),  # den 0, as ``Fraction(num, 0)`` raises
    combinat.binomial: (OverflowError,),  # past ``sys.maxsize``, as ``math.comb`` raises
    combinat.multinomial: (OverflowError,),  # a sum past ``sys.maxsize``: ``math.factorial``
    eddeg.binary_generic_ed_degree: (OverflowError,),  # past ``sys.maxsize``: ``math.factorial``
    eddeg.matrix_ed_polynomial: (ValueError, OverflowError),  # an entry ``Fraction`` refuses
    hyperdet.partition_formats: (RecursionError,),  # a tuple longer than the recursion limit
}

SMALL = range(-3, 9)
HUGE = (10 ** 400, 10 ** 5000, -10 ** 5000)
ANY = (True, False, 0.5, 2.0, -1.0, float("inf"), float("nan"), None, "", "3", "ed", (),
       (1, 2), ((1,), (2, 3)))
TEXTS = ("hyperdet", "ed", "sv", "binary", "nosuch", "")


class _Alarm(BaseException):
    """The end of a call's time; a ``BaseException``, so no ``except Exception`` holds it."""


def _functions():
    """(name, function) for every public callable of the library but its exceptions."""
    found = []
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value) and not (isinstance(value, type)
                                        and issubclass(value, BaseException)):
                found.append((f"{short}.{name}", value))
    found += [(f"asympt.FORMULAS[{formula!r}][{i}]", function)
              for formula, functions in asympt.FORMULAS.items()
              for i, function in enumerate(functions)]
    return found


def _integer(rng):
    return rng.choice(HUGE) if rng.random() < 0.1 else rng.choice(SMALL)


def _draw(rng, annotation):
    """One argument for a parameter of ``annotation`` (text or a type); any kind for none."""
    text = annotation if isinstance(annotation, str) else inspect.formatannotation(annotation)
    if text == "str":  # a name: a formula, or a label that a refusal shows
        return rng.choice(TEXTS)
    if annotation is inspect.Parameter.empty or rng.random() < 0.2:
        return rng.choice(ANY + HUGE) if rng.random() < 0.5 else _integer(rng)
    nested = len(re.findall(r"Sequence|Iterable", text))
    if nested:
        count = rng.randint(0, 4)
        if nested > 1:
            return tuple(tuple(_integer(rng) for _ in range(rng.randint(0, 3)))
                         for _ in range(count))
        return tuple(_integer(rng) for _ in range(count))
    if "ChernData" in text:
        return polar.chern_data_projective_space_product(
            tuple(rng.choice(range(4)) for _ in range(rng.randint(1, 3))))
    if "Callable" in text:
        return lambda line: None
    if text == "float":
        return rng.choice((0.0, -1.5, 1.0, 1e308, float("inf"), float("nan")))
    if text == "bool":
        return rng.random() < 0.5
    return _integer(rng)


def _show(value):
    """``value`` as a finding names it: an integer through ``show_int``, which ``repr`` cannot
    write past 4300 digits."""
    if isinstance(value, int) and not isinstance(value, bool):
        return show_int(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_show, value)) + ("," if len(value) == 1 else "") + ")"
    return repr(value)


def _calls(rng):
    """(name, function, arguments) for ``DRAWS`` calls of each function."""
    for name, function in _functions():
        parameters = [p for p in inspect.signature(function).parameters.values()
                      if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        least = sum(p.default is p.empty for p in parameters)
        for _ in range(DRAWS):
            count = rng.randint(least, len(parameters))
            yield name, function, tuple(_draw(rng, p.annotation) for p in parameters[:count])


def _finding(function, call):
    """The text of what ``call`` (a function of no arguments) raised outside the contract, or
    None.  An iterator it returns is read, so a lazy refusal is reached."""
    allowed = (UsageError, TypeError, VerificationError, MemoryError, _Alarm,
               *DOCUMENTED.get(function, ()))
    try:
        signal.setitimer(signal.ITIMER_REAL, ALARM_S)
        try:
            result = call()
            if isinstance(result, Iterator):
                for _ in itertools.islice(result, 10 ** 4):
                    pass
        finally:  # the alarm can come until the timer stops, so it stops inside the handlers
            signal.setitimer(signal.ITIMER_REAL, 0)
    except allowed:
        return None
    except Exception as exc:  # anything else breaks the contract
        return f"{type(exc).__name__}: {str(exc)[:200]}"
    return None


def _child():
    """Runs every call and prints one line per finding."""
    import resource

    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = LIMIT_BYTES if hard == resource.RLIM_INFINITY else min(LIMIT_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    def alarm(signum, frame):
        raise _Alarm

    signal.signal(signal.SIGALRM, alarm)
    for name, function, args in _calls(random.Random(SEED)):
        finding = _finding(function, lambda: function(*args))
        if finding:
            print(f"{name}({', '.join(map(_show, args))}) -> {finding}", flush=True)


def test_every_public_call_returns_or_raises_what_its_contract_names():
    """Each line the child prints names one call and what it raised."""
    if not hasattr(pytest.importorskip("resource"), "RLIMIT_AS"):
        pytest.skip("the platform has no RLIMIT_AS")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-B", __file__],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == []


if __name__ == "__main__":
    _child()
