"""Alternating parent/change pairs of one benchmark workload, summarised on file.

Usage:
    python3 tools/pair.py --parent REV --workload W --seeds A..B --seconds S

Both sides are exported with ``git archive`` to ``.bench_build/<commit sha>/``: the parent
revision, and the change as the commit of the working tree's tracked files that ``git stash
create`` makes (HEAD when they match it), so that the record names the tree it measured.
Untracked files under ``src/``, ``tests/`` or ``tools/`` would be left out of that export, so
they are refused with exit 2, as is a ``--seeds`` value other than ``A`` or ``A..B`` with
A <= B.  For each seed A..B, one pair runs the parent's ``perfbench/run.py`` and the
change's, both unchanged and with ``--trace 0``, the parent first on an odd seed and the
change first on an even one (``sides``), and reads the JSON object on the last line of each
run's stdout.

``BENCH_<workload>-<parent sha[:7]>.json`` in the working tree root holds the commit and tree
sha of each side, the Python version, ``nproc``, every run (its seed, side, ``order`` in the
pair, ``correct`` and its metric values) and, for each end-to-end metric of
``BENCHMARK.json``: the per-seed values of each side, the medians, the parent's interquartile
range, the change's wins (ties count for neither), the bound and a verdict (see ``compare``).
The exit code is 1 when any run is not ``correct``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the directories whose untracked files the change's export would leave out
MEASURED = ("src", "tests", "tools")


def iqr(values):
    """The distance between the quartiles of ``values`` (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def compare(parent, change, better, bound):
    """The summary of one metric from its paired values, in seed order, with its verdict:

    - ``regression``: the change's median is worse than the parent's by more than ``bound``
      times the parent's median;
    - ``gain``: the change wins at least nine tenths of the pairs and its median is better by
      more than the parent's interquartile range;
    - ``unresolved``: the parent's interquartile range is wider than the bound and not every
      run of the change is better than every run of the parent;
    - ``no-regression`` otherwise.
    """
    sign = 1 if better == "lower" else -1  # sign * value is lower when better
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    worse_by = sign * (change_median - parent_median)
    scale, spread = abs(parent_median), iqr(parent)
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    if worse_by > bound * scale:
        verdict = "regression"
    elif wins >= 0.9 * len(parent) and -worse_by > spread:
        verdict = "gain"
    elif (spread > bound * scale
          and max(sign * c for c in change) >= min(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "no-regression"
    return {"parent": parent, "change": change, "parent_median": parent_median,
            "change_median": change_median, "parent_iqr": spread, "wins": wins,
            "pairs": len(parent), "bound": bound, "better": better, "verdict": verdict}


def summarise(runs, end_to_end):
    """metric -> ``compare`` of its values, from ``runs`` (dicts with seed, side and metrics,
    one parent and one change run per seed) and the ``end_to_end`` list of ``BENCHMARK.json``."""
    out = {}
    for spec in end_to_end:
        parent, change = ([run["metrics"][spec["name"]] for run in runs if run["side"] == side]
                          for side in ("parent", "change"))
        out[spec["name"]] = {"unit": spec["unit"],
                             **compare(parent, change, spec["better"], spec["bound"])}
    return out


def sides(seed):
    """The two sides of the pair of ``seed`` in the order they run: the parent first on an odd
    seed, the change first on an even one, so that neither side always runs second, on a
    machine and a file cache that the other has just warmed."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def run_pairs(seeds, run):
    """The runs of each seed's pair, in ``sides`` order: ``run(side, seed)`` gives a run's
    fields, to which the seed, the side and its ``order`` in the pair (1 or 2) are added."""
    return [{"seed": seed, "side": side, "order": order, **run(side, seed)}
            for seed in seeds for order, side in enumerate(sides(seed), 1)]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev):
    """The tree of ``rev`` under ``.bench_build/<commit sha>``, exported once; returns
    ``({"rev": commit sha, "tree": tree sha}, path)``."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    path = ROOT / ".bench_build" / sha
    if not (path / "perfbench" / "run.py").is_file():
        path.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(path)], input=archive, check=True)
    return {"rev": sha, "tree": _git("rev-parse", f"{sha}^{{tree}}")}, path


def seed_range(text):
    """The seeds that ``A`` or ``A..B`` names, both included; anything else, ``B < A``
    included, is refused."""
    first, dots, last = text.partition("..")
    try:
        seeds = range(int(first), int(last if dots else first) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds:
        raise argparse.ArgumentTypeError(f"want A or A..B with A <= B, got {text!r}")
    return seeds


def run_once(checkout, workload, seed, seconds):
    """One ``--trace 0`` run of the ``perfbench/run.py`` in ``checkout``: its last stdout line,
    or ``correct: false`` with the tail of stderr when the run fails."""
    done = subprocess.run([sys.executable, str(checkout / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    try:
        last = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": done.stderr[-2000:], "metrics": {}}
    return {"correct": last["correct"] and done.returncode == 0, "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A..B, both included")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    untracked = _git("ls-files", "--others", "--exclude-standard", "--", *MEASURED)
    if untracked:
        parser.error(f"untracked files would not be measured; add or remove them:\n{untracked}")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, parent_dir = export(args.parent)
    change, change_dir = export(_git("stash", "create") or "HEAD")
    checkouts = {"parent": parent_dir, "change": change_dir}

    def run(side, seed):
        done = run_once(checkouts[side], args.workload, seed, args.seconds)
        shown = " ".join(f"{k}={v:.6g}" for k, v in done["metrics"].items())
        print(f"seed {seed} {side}: correct={done['correct']} {shown}", file=sys.stderr)
        return done

    runs = run_pairs(args.seeds, run)

    correct = all(run["correct"] for run in runs)
    record = {
        "workload": args.workload, "seconds": args.seconds, "seeds": list(args.seeds),
        "parent": parent, "change": change,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "correct": correct, "runs": runs,
        "metrics": summarise(runs, benchmark["end_to_end"]) if correct else {},
    }
    path = ROOT / f"BENCH_{args.workload}-{parent['rev'][:7]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in record["metrics"].items():
        print(f"{name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
              f"(parent IQR {m['parent_iqr']:.3g}, {m['wins']} of {m['pairs']} won) "
              f"{m['verdict']}")
    print(path)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
