"""Workload catalog: the CLI cases each workload draws from, by cost class.

A workload is a list of cost classes.  Each class has a fixed number of
cases per round and a list of members (CLI argument strings).  A round takes
that many members from each class and shuffles them; the seed picks which
members and the order.  Members are dealt from a per-class deck that is
reshuffled when it runs out, so over several rounds every member of a class
appears about equally often and the mix has the same composition whatever
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

FORMATS = ("plain", "csv", "json")


def _with_formats(bases: Sequence[str]) -> List[str]:
    out = []
    for base in bases:
        for fmt in FORMATS:
            out.append(base if fmt == "plain" else f"{base} --format {fmt}")
    return out


@dataclass(frozen=True)
class CostClass:
    name: str
    per_round: int
    members: Tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    classes: Tuple[CostClass, ...]
    warmup: Tuple[str, ...]  # cheap invocations that touch every subcommand used

    @property
    def round_size(self) -> int:
        return sum(c.per_round for c in self.classes)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Single large degrees: truncpoly series_inverse and mul do the work, polar none.
        Workload(
            name="exact-degrees",
            classes=(
                CostClass("wide-light", 6, (
                    "hyperdet 10,10,10", "hyperdet 12,12,12", "hyperdet 14,14,14",
                    "hyperdet 4,4,4,4", "hyperdet 12,6,6", "hyperdet 8,8,8 --omega 3",
                    "hyperdet 10,10,10 --omega 2", "eddeg 12,12,12",
                    "eddeg 30,30,30 --generic", "eddeg 40,40,40 --generic",
                )),
                CostClass("wide-heavy", 4, (
                    "hyperdet 18,18,18", "hyperdet 20,20,20", "hyperdet 5,5,5,5",
                    "hyperdet 6,6,6,6", "eddeg 15,15,15", "eddeg 18,18,18",
                    "eddeg 60,60,60 --generic",
                )),
                CostClass("deep-light", 4, (
                    "hyperdet 1,1,1,2,2,2", "hyperdet 1,1,1,1,1,1,1", "hyperdet 2,2,2,2,2",
                    "hyperdet 4,1,1,2", "eddeg 3,3,3,3,3", "eddeg 2,3,3,3,3",
                    "eddeg 2,2,2,2,2,2", "eddeg 1,1,1,1,1,1,1,1 --generic",
                )),
                CostClass("deep-heavy", 3, (
                    "hyperdet 1,1,1,1,1,1,1,1", "hyperdet 3,3,3,3,3", "hyperdet 1,1,2,2,2,2",
                    "hyperdet 2,2,3,3,3",
                )),
                CostClass("asympt-compare", 3, (
                    "asympt hyperdet 3 4:16:4 --compare", "asympt ed 3 4:16:4 --compare",
                    "asympt hyperdet 3 2:12:2 --compare", "asympt ed 3 2:12:2 --compare",
                    "asympt sv 3 2:8:2 --omega 2 --compare",
                )),
            ),
            warmup=("hyperdet 1,1,1", "eddeg 1,1,1", "asympt hyperdet 3 2 --compare"),
        ),
        # The verify suites and table stabilization: polar, combinat and the asympt
        # constants do the work; truncpoly runs as many tiny rings.  Classes are by
        # cost (times on the machine in README.md).  Every member of "middle" and
        # "heavy" runs once a round, so the slowest quarter of each round is always
        # the same five cases and case_ms.p90 falls inside that block.
        Workload(
            name="verify-sweeps",
            classes=(
                CostClass("light", 8, (  # about 130-180 ms
                    "verify identities --max 15", *(f"verify rw-constants --max {m}" for m in range(6, 10)),
                    "verify stabilization --max 4", "verify cross-oracle --max 5",
                    "verify cross-oracle --max 6", *_with_formats(["table stabilization"]),
                )),
                CostClass("middle", 6, (  # about 200-270 ms
                    *(f"verify identities --max {m}" for m in range(16, 21)), "verify rw-constants --max 10",
                )),
                CostClass("heavy", 5, (  # about 280-360 ms
                    "verify identities --max 21", "verify identities --max 22", "verify rw-constants --max 11",
                    "verify stabilization --max 5", "verify cross-oracle --max 7",
                )),
            ),
            warmup=("verify identities --max 2", "table dual-example"),
        ),
        # Tiny requests in three formats plus refusals: process start, import and
        # cli dominate.
        Workload(
            name="small-requests",
            classes=(
                CostClass("scalar", 9, tuple(_with_formats([
                    "hyperdet 1,1,1", "hyperdet 1,1,2", "hyperdet 1,2,2", "hyperdet 2,2,2",
                    "hyperdet 2 --omega 3", "eddeg 1,1,1", "eddeg 1,2", "eddeg 2,2",
                    "eddeg 1,3 --generic", "eddeg 2,2 --generic", "eddeg 2 --weights 4",
                    "eddeg 3 --weights 3", "eddeg 2 --weights 4 --generic",
                    "eddeg 1,2 --weights 2,3 --generic",
                ]))),
                CostClass("table", 3, tuple(_with_formats([
                    "table table2", "table stabilization", "table dual-example",
                ]))),
                # The only cases well above the rest (about 150-200 ms); all three run
                # every round, so case_ms.p90 falls inside this block instead of in
                # the noise tail of the ~100 ms cases.
                CostClass("table-jobs", 3, (
                    "table table2 --jobs 2", "table stabilization --format csv --jobs 2",
                    "table dual-example --format json --jobs 2",
                )),
                CostClass("asympt", 5, tuple(_with_formats([
                    "asympt binary 3", "asympt binary 8", "asympt discriminant 3 4",
                    "asympt discriminant 5 3", "asympt hyperdet 3 5:20:5", "asympt ed 4 2:10:2",
                ]))),
                CostClass("refusal", 2, (
                    "hyperdet 1,x,1", "hyperdet 1,-1", "table nosuchtable",
                    "eddeg 1,1 --weights 2", "asympt hyperdet 2 3",
                    "hyperdet 3,3,3 --cap-bytes 1", "eddeg 2,2 --cap-bytes 1",
                    "asympt hyperdet 3 2:4 --compare --cap-bytes 1",
                )),
            ),
            warmup=("hyperdet 1,1,1", "table dual-example --jobs 2", "asympt binary 3"),
        ),
    )
}


def all_members() -> List[str]:
    """Every distinct case of every workload, in catalog order."""
    seen: Dict[str, None] = {}
    for workload in WORKLOADS.values():
        for cls in workload.classes:
            for member in cls.members:
                seen.setdefault(member, None)
    return list(seen)


@dataclass(frozen=True)
class Case:
    cost_class: str
    command: str

    @property
    def argv(self) -> List[str]:
        return self.command.split()


class CaseStream:
    """Seeded rounds of cases for one workload."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.decks: Dict[str, List[str]] = {c.name: [] for c in workload.classes}

    def _deal(self, cls: CostClass) -> str:
        deck = self.decks[cls.name]
        if not deck:
            deck.extend(cls.members)
            self.rng.shuffle(deck)
        return deck.pop()

    def next_round(self) -> List[Case]:
        cases = [Case(cls.name, self._deal(cls))
                 for cls in self.workload.classes for _ in range(cls.per_round)]
        self.rng.shuffle(cases)
        return cases

    def rounds(self, count: int) -> List[Case]:
        out: List[Case] = []
        for _ in range(count):
            out.extend(self.next_round())
        return out
