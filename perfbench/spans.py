"""In-memory span tracing of the segre_degrees layers, installed from outside.

``Tracer.patched()`` replaces the public functions of each module with
wrappers that record a span (name, start, end, parent span, case id) per
call.  A function is replaced in every ``segre_degrees`` namespace that
holds it, because ``hyperdet``, ``polar``, ``asympt`` and ``cli`` bind their
imports by name, and ``TruncatedPoly`` operators are replaced on the class.
``combinat`` calls are counted, not timed: they are too small and too many.

Exact counters (cells, pairs, terms, coefficient bits) are computed after a
span has ended.  That bookkeeping is itself recorded as a span of the
caller, so it counts neither toward the measured layer nor toward the
caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

BOOKKEEPING = "trace.bookkeeping"

# layer -> (module, attribute); "Class.attr" names a method of that class.
TIMED_LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "truncpoly.series_inverse": (("truncpoly", "series_inverse"),),
    "truncpoly.mul": (("truncpoly", "TruncatedPoly.__mul__"),),
    "truncpoly.add": (("truncpoly", "TruncatedPoly.__add__"),),
    "truncpoly.calculus": (("truncpoly", "TruncatedPoly.partial_derivative"),
                           ("truncpoly", "TruncatedPoly.evaluate")),
    "hyperdet.degree": (("hyperdet", "sv_hyperdet_degree"),),
    "hyperdet.mixed_partial": (("hyperdet", "mixed_partial_at_symmetric_point"),),
    "eddeg.frobenius": (("eddeg", "frobenius_ed_degree"),),
    "eddeg.generic": (("eddeg", "generic_ed_degree"),),
    "eddeg.stabilization": (("eddeg", "stabilization_onset"),),
    "polar.chern": (("polar", "chern_data_projective_space_product"),
                    ("polar", "chern_data_smooth_hypersurface"),
                    ("polar", "chern_data_product")),
    "polar.dual_profile": (("polar", "dual_profile"),),
    "polar.identities": (("polar", "alternating_binomial_identity_holds"),
                         ("polar", "f_identity_holds"),
                         ("polar", "g_identity_holds")),
    "polar.ratio_check": (("polar", "stabilization_ratio_check"),),
    "polar.delta0": (("polar", "delta0_product_with_hypersurface"),),
    "asympt.constants": (("asympt", "verify_minimal_point_constants"),),
    "asympt.estimates": tuple(("asympt", name) for name in (
        "log_hyperdet_asymptotic", "log_ed_asymptotic", "log_sv_hyperdet_asymptotic",
        "binary_asymptotics", "discriminant_ratios", "relative_error")),
    "cli": (("cli", "main"),),
}

COUNTED_CALLS: Dict[str, Tuple[str, str]] = {
    "combinat.binomial": ("combinat", "binomial"),
    "combinat.multinomial": ("combinat", "multinomial"),
}

EXACT_COUNTERS = (
    "truncpoly.series_inverse.cells", "truncpoly.series_inverse.terms_out",
    "truncpoly.series_inverse.pairs_in_range", "truncpoly.series_inverse.pairs_attempted",
    "truncpoly.mul.pairs", "truncpoly.mul.terms_out", "truncpoly.max_coeff_bits",
)


def _max_bits(terms: Dict) -> int:
    return max((abs(c).bit_length() for c in terms.values()), default=0)


class Tracer:
    """Spans and counters of one traced replay."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, case id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.stack: List[int] = []
        self.case_id = -1
        self.counters: Dict[str, int] = defaultdict(int)

    # -- wrappers --------------------------------------------------------------

    def timed(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.case_id)
            if measure is not None:
                measure(args, result)
                spans.append((BOOKKEEPING, end, perf_counter(), parent, self.case_id))
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _measure_mul(self, args: Sequence, result) -> None:
        a, b = args
        c = self.counters
        c["truncpoly.mul.pairs"] += len(a.terms) * (1 if isinstance(b, int) else len(b.terms))
        c["truncpoly.mul.terms_out"] += len(result.terms)
        c["truncpoly.max_coeff_bits"] = max(c["truncpoly.max_coeff_bits"], _max_bits(result.terms))

    def _measure_inverse(self, args: Sequence, result) -> None:
        (h,) = args
        caps = h.caps
        cells = 1
        for cap in caps:
            cells *= cap + 1
        rest = [e for e in h.terms if any(e)]
        in_range = 0
        for g in rest:
            count = 1
            for cap, gj in zip(caps, g):
                count *= cap - gj + 1
            in_range += count
        c = self.counters
        c["truncpoly.series_inverse.cells"] += cells
        c["truncpoly.series_inverse.pairs_in_range"] += in_range
        c["truncpoly.series_inverse.pairs_attempted"] += cells * len(rest)
        c["truncpoly.series_inverse.terms_out"] += len(result.terms)
        c["truncpoly.max_coeff_bits"] = max(c["truncpoly.max_coeff_bits"], _max_bits(result.terms))

    # -- installation ------------------------------------------------------------

    @contextlib.contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Install every wrapper for the duration of the block."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "segre_degrees" or name.startswith("segre_degrees."))]
        undo: List[Tuple[object, str, object]] = []

        def replace(owner_name: str, attr: str, make: Callable[[Callable], Callable]) -> None:
            owner = sys.modules["segre_degrees." + owner_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapper = make(original)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        undo.append((cls, key, value))
                        setattr(cls, key, wrapper)
                return
            original = getattr(owner, attr)
            wrapper = make(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, value))
                        setattr(module, key, wrapper)

        measures = {"truncpoly.mul": self._measure_mul,
                    "truncpoly.series_inverse": self._measure_inverse}
        try:
            for layer, targets in TIMED_LAYERS.items():
                for owner_name, attr in targets:
                    replace(owner_name, attr,
                            lambda fn, layer=layer: self.timed(layer, fn, measures.get(layer)))
            for name, (owner_name, attr) in COUNTED_CALLS.items():
                replace(owner_name, attr, lambda fn, name=name: self.counted(name, fn))
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    # -- results -----------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self time in ms), bookkeeping spans excluded."""
        totals: Dict[str, List[float]] = {layer: [0, 0.0] for layer in TIMED_LAYERS}
        for span, own in zip(self.spans, self_times(self.spans)):
            if span[0] != BOOKKEEPING:
                entry = totals[span[0]]
                entry[0] += 1
                entry[1] += own * 1000.0
        return {layer: (int(calls), ms) for layer, (calls, ms) in totals.items()}

    def write_jsonl(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps({"name": name, "start_ms": round((start - origin) * 1000, 4),
                                     "end_ms": round((end - origin) * 1000, 4),
                                     "parent": parent, "case": case}) + "\n")


def self_times(spans: Sequence[Tuple[str, float, float, int, int]]) -> List[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span; overlapping children are counted once."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _case in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_name, start, end, _parent, _case) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, start), min(child_end, end)
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out
