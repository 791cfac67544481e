"""Benchmark of the segre-degrees CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` one closed-loop client runs the workload's seeded cases
as ``python -m segre_degrees.cli`` child processes, one after another, for
at least ``--seconds`` seconds and at least 100 cases, in whole rounds.
Every child's exit code and stdout bytes are checked against ``pins.json``.
Times are scaled to reference speed by an interleaved reference child (see
REFERENCE below).  The end-to-end metrics are printed, and the last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.

With ``--trace 1`` the first two rounds of the same seeded cases run in
process through ``cli.main``, each case untraced and then with every layer
wrapped by ``spans.Tracer``.  The per-layer metrics come from the traced
calls; both in-process calls must give exactly the pinned exit code and
stdout bytes, which every ``--trace 0`` run checks the child processes
against, so tracing never changes the output.

Each run writes its full record (environment, case counts, samples,
metrics) to ``perfbench/out/``, and a traced run also writes its spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
import harness  # noqa: E402
from spans import EXACT_COUNTERS, TIMED_LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 5
PROBES_PER_SETUP = 2
MIN_CASES = 100
TRACE_ROUNDS = 2

# A fixed child that runs none of the program: interpreter start plus a short
# dict-and-bigint loop.  It runs after every REFERENCE_EVERY cases, and each
# case's time is scaled by REFERENCE_MS / (median of the three nearest
# reference times), which cancels the drift of the machine's speed between
# and within runs (see README.md).
REFERENCE = ["-c", "d = {}\nfor i in range(100000):\n    k = i % 997\n"
                   "    d[k] = d.get(k, 1) * 12345678901 % 1000000007\n"]
REFERENCE_EVERY = 4
REFERENCE_MS = 100.0


def set_up(workload: catalog.Workload, seed: int, spawner: harness.Spawner) -> dict:
    """Set up SETUP_REPEATS times and keep the median duration.

    One set-up generates the seeded cases, loads the pins and checks that
    every member of the workload has one, warms bytecode and the page cache
    with a few cheap invocations, and probes interpreter start
    (``python -c pass``) and package import (``import segre_degrees.cli``).
    Three reference children after each set-up, outside its time, give the
    scale to reference speed: the median set-up is scaled by the median of
    all of them, which is steadier than scaling each set-up by its own three.
    """
    durations: List[float] = []
    references: List[float] = []
    start_probes: List[float] = []
    import_probes: List[float] = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        catalog.CaseStream(workload, seed).rounds(TRACE_ROUNDS)
        pins = harness.load_pins()
        missing = [m for c in workload.classes for m in c.members if m not in pins]
        if missing:
            print(f"error: no pin for {missing}; run perfbench/pin.py", file=sys.stderr)
            raise SystemExit(2)
        for command in workload.warmup:
            if spawner.cli(command).exit_code != 0:
                print(f"error: warm-up {command!r} failed", file=sys.stderr)
                raise SystemExit(2)
        for _ in range(PROBES_PER_SETUP):
            start_probes.append(spawner.run(["-c", "pass"]).wall_ms)
            import_probes.append(spawner.run(["-c", "import segre_degrees.cli"]).wall_ms)
        durations.append(time.perf_counter() - began)
        references.extend(spawner.run(REFERENCE).wall_ms for _ in range(3))
    start_ms = statistics.median(start_probes)
    return {
        "pins": pins,
        "setup_s": statistics.median(durations) * REFERENCE_MS / statistics.median(references),
        "setup_s_raw": statistics.median(durations),
        "setup_s_samples": durations,
        "process_start_ms": start_ms,
        "import_ms": statistics.median(import_probes) - start_ms,
    }


def measure(workload: catalog.Workload, seed: int, seconds: float, spawner: harness.Spawner,
            pins: Dict[str, dict]) -> dict:
    """Closed loop of child processes, in whole rounds, until both the time
    and the sample floor are reached, with the reference child interleaved."""
    stream = catalog.CaseStream(workload, seed)
    samples: List[Tuple[str, str, float, int]] = []
    reference_ms: List[float] = []
    mismatches: List[str] = []
    peak_kb = 0
    began = time.perf_counter()
    while True:
        for case in stream.next_round():
            result = spawner.cli(case.command)
            samples.append((case.cost_class, case.command, result.wall_ms, result.exit_code))
            peak_kb = max(peak_kb, result.maxrss_kb)
            if not harness.matches_pin(case.command, result.exit_code, result.stdout, pins):
                mismatches.append(case.command)
            if len(samples) % REFERENCE_EVERY == 0:
                reference_ms.append(spawner.run(REFERENCE).wall_ms)
        elapsed = time.perf_counter() - began
        if elapsed >= seconds and len(samples) >= MIN_CASES:
            break
    times = [s[2] for s in samples]
    n = len(samples)

    def scale(group: int) -> float:
        group = min(group, len(reference_ms) - 1)
        return REFERENCE_MS / statistics.median(reference_ms[max(0, group - 1):group + 2])

    scaled = [t * scale(i // REFERENCE_EVERY) for i, t in enumerate(times)]
    raw = {
        "case_ms.p50": statistics.median(times),
        "case_ms.p90": harness.percentile(times, 90),
        "cases_per_s": n / (sum(times) / 1000.0),
    }
    return {
        "samples": samples,
        "mismatches": mismatches,
        "elapsed_s": elapsed,
        "reference_ms": reference_ms,
        "raw": raw,
        "metrics": {
            "case_ms.p50": (statistics.median(scaled), "ms"),
            "case_ms.p90": (harness.percentile(scaled, 90), "ms"),
            "cases_per_s": (n / (sum(scaled) / 1000.0), "1/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "ok_frac": ((n - len(mismatches)) / n, "ratio"),
        },
        "failed_frac": len(mismatches) / n,
    }


def _call_main(cli, argv: List[str]) -> Tuple[int, bytes, float]:
    captured = io.StringIO()
    began = time.perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception:  # a child process would die with exit code 1
            traceback.print_exc(file=sys.__stderr__)
            code = 1
    return code, captured.getvalue().encode(), (time.perf_counter() - began) * 1000.0


def _replay(workload: catalog.Workload, cases: List[catalog.Case], tracer: Tracer):
    """Run each case in process untraced, then traced, and return both.

    The warm-up commands run first, so lazy imports inside the package are
    not charged to the first untraced case.
    """
    sys.path.insert(0, str(harness.SRC))
    from segre_degrees import cli

    for command in workload.warmup:
        _call_main(cli, command.split())
    plain, traced = [], []
    for index, case in enumerate(cases):
        plain.append(_call_main(cli, case.argv))
        tracer.case_id = index
        with tracer.patched():
            traced.append(_call_main(cli, case.argv))
    return plain, traced


def trace(workload: catalog.Workload, seed: int, pins: Dict[str, dict], out_dir: Path) -> dict:
    cases = catalog.CaseStream(workload, seed).rounds(TRACE_ROUNDS)
    tracer = Tracer()
    plain, traced = _replay(workload, cases, tracer)
    mismatches = []
    for case, (code, stdout, _), (traced_code, traced_stdout, _) in zip(cases, plain, traced):
        if not harness.matches_pin(case.command, code, stdout, pins):
            mismatches.append(f"{case.command} (in process)")
        elif not harness.matches_pin(case.command, traced_code, traced_stdout, pins):
            mismatches.append(f"{case.command} (traced)")
    tracer.write_jsonl(out_dir / f"{workload.name}-seed{seed}.spans.jsonl")

    plain_ms = [r[2] for r in plain]
    traced_ms = [r[2] for r in traced]
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer, (calls, self_ms) in tracer.layer_totals().items():
        if layer != "cli":
            metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_ms"] = (self_ms, "ms")
    c = tracer.counters
    attempted = c["truncpoly.series_inverse.pairs_attempted"]
    metrics.update({
        "truncpoly.series_inverse.cells": (c["truncpoly.series_inverse.cells"], "count"),
        "truncpoly.series_inverse.terms_out": (c["truncpoly.series_inverse.terms_out"], "count"),
        "truncpoly.series_inverse.in_range_ratio": (
            c["truncpoly.series_inverse.pairs_in_range"] / attempted if attempted else 0.0, "ratio"),
        "truncpoly.mul.pairs": (c["truncpoly.mul.pairs"], "count"),
        "truncpoly.mul.terms_out": (c["truncpoly.mul.terms_out"], "count"),
        "truncpoly.max_coeff_bits": (c["truncpoly.max_coeff_bits"], "bits"),
        "combinat.binomial.calls": (c["combinat.binomial.calls"], "count"),
        "combinat.multinomial.calls": (c["combinat.multinomial.calls"], "count"),
        "cli.bytes_out": (sum(len(pins[case.command]["stdout"].encode()) for case in cases), "bytes"),
        "inproc.case_ms.p50": (statistics.median(plain_ms), "ms"),
        "trace.overhead_frac": (sum(traced_ms) / sum(plain_ms) - 1.0, "ratio"),
        "trace.span_count": (sum(1 for s in tracer.spans if s[0] in TIMED_LAYERS), "count"),
    })
    return {
        "cases": [c.command for c in cases],
        "mismatches": mismatches,
        "exact_counters": {k: c[k] for k in EXACT_COUNTERS},
        "metrics": metrics,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.check_source_tree()
    workload = catalog.WORKLOADS[args.workload]
    out_dir = harness.OUT_DIR
    out_dir.mkdir(exist_ok=True)

    with harness.Spawner(harness.child_env()) as spawner:
        setup = set_up(workload, args.seed, spawner)
        pins = setup.pop("pins")
        if args.trace:
            run = trace(workload, args.seed, pins, out_dir)
            run["metrics"]["cli.process_start_ms"] = (setup["process_start_ms"], "ms")
            run["metrics"]["cli.import_ms"] = (setup["import_ms"], "ms")
            attempted = len(run["cases"])
        else:
            run = measure(workload, args.seed, args.seconds, spawner, pins)
            run["raw"]["setup_s"] = setup["setup_s_raw"]
            run["metrics"]["setup_s"] = (setup["setup_s"], "s")
            attempted = len(run["samples"])

    failed = len(run["mismatches"])
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment_record(),
        "class_counts_per_round": {c.name: c.per_round for c in workload.classes},
        "rounds": attempted // workload.round_size,
        "attempted": attempted,
        "failed": failed,
        "setup": setup,
        **{k: v for k, v in run.items() if k != "metrics"},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    with open(out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for command in run["mismatches"]:
        print(f"MISMATCH {command}")
    print(f"# {workload.name} seed={args.seed} cases={attempted} "
          f"rounds={record['rounds']} x {workload.round_size} {record['class_counts_per_round']}")
    if not args.trace:
        print(f"failed_frac {run['failed_frac']:.6g} ratio")
        print(f"# times below are at reference speed (reference child median "
              f"{statistics.median(run['reference_ms']):.2f} ms, scaled to {REFERENCE_MS:g} ms); "
              "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in run["raw"].items()))
    for name, (value, unit) in run["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
