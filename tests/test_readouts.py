"""The degree readouts after the fold: ``combinat.horner`` itself, the
readouts that use it against the per-term power sums they replace, and the
generic ED and hyperdeterminant degrees against polar degrees.

The polar route is Draisma-Horobet-Ottaviani-Sturmfels-Thomas, "The
Euclidean distance degree of an algebraic variety" (FoCM 2016), Thm 5.4:
the generic ED degree of a smooth variety is the sum of its polar degrees
delta_i, and delta_0 is the degree of its dual when that is a hypersurface.
The weighted polar classes come from ``perfbench/pin.py``, which computes
the Chern degrees of a Segre-Veronese product by its own product expansion.
"""

from __future__ import annotations

import random
import sys
from itertools import product
from pathlib import Path

import segre_degrees.eddeg as eddeg
import segre_degrees.hyperdet as hyperdet
from segre_degrees.combinat import binomial_row, horner, multinomial_fold, segre_fold
from segre_degrees.eddeg import generic_ed_degree
from segre_degrees.hyperdet import (
    hyperdet_degree,
    mixed_partial_at_symmetric_point,
    partition_formats,
    sv_hyperdet_degree,
)
from segre_degrees.polar import chern_data_projective_space_product, dual_profile

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from pin import weighted_polar_classes  # noqa: E402


def test_horner_sums_one_power_per_term():
    rng = random.Random(23)
    assert horner([], 5) == 0
    for length in range(1, 40):
        coeffs = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(length)]
        for x in range(-3, 4):
            assert horner(coeffs, x) == sum(c * x ** s for s, c in enumerate(coeffs))


def test_readouts_equal_the_power_sums_at_a_long_factor():
    """The readouts as sums with one power per term, over the same fold."""
    dims = (1, 1, 3000)
    g_sv = multinomial_fold([(-1) ** (n - k) * c for k, c in enumerate(binomial_row(n + 1)[1:])]
                            for n in dims)
    g_ed = multinomial_fold(binomial_row(n + 1)[1:] for n in dims)
    assert sv_hyperdet_degree(dims, 3) == sum((s + 1) * 3 ** s * g_s for s, g_s in enumerate(g_sv))
    assert generic_ed_degree(dims) == sum((-1) ** (sum(dims) - s) * (2 ** (s + 1) - 1) * g_s
                                          for s, g_s in enumerate(g_ed))


def test_each_readout_is_one_or_two_horner_calls(monkeypatch):
    calls = []
    for module in (hyperdet, eddeg):
        def counted(coeffs, x, name=module.__name__):
            calls.append(name)
            return horner(coeffs, x)

        monkeypatch.setattr(module, "horner", counted)
    readouts = [
        (lambda: generic_ed_degree((1, 1, 3000)), ["segre_degrees.eddeg"] * 2),
        (lambda: sv_hyperdet_degree((1, 1, 3000), 3), ["segre_degrees.hyperdet"]),
        (lambda: mixed_partial_at_symmetric_point(7, 2), ["segre_degrees.hyperdet"]),
    ]
    for readout, expected in readouts:
        calls.clear()
        readout()
        assert calls == expected


def test_generic_ed_degree_is_the_sum_of_the_polar_degrees():
    """One fold, three readings: the Chern class degrees of P^{n1} x ... x P^{nd}
    are the fold reversed, and both Segre degrees read it, delta_0 and sum delta_i."""
    for dims in [*partition_formats(10), (1, 1, 200), (2, 3, 60), (0, 4), (1, 1, 1000),
                 (2, 2, 400)]:
        chern = chern_data_projective_space_product(dims)
        assert chern.class_degrees == tuple(reversed(segre_fold(dims, (1,) * len(dims)))), dims
        deltas = dual_profile(chern).deltas
        assert generic_ed_degree(dims) == sum(deltas), dims
        assert hyperdet_degree(dims) == deltas[0], dims


def test_weighted_readouts_match_the_weighted_polar_classes():
    for dims in partition_formats(6):
        for weights in product((1, 2, 3), repeat=len(dims)):
            deltas = weighted_polar_classes(dims, weights)
            assert generic_ed_degree(dims, weights) == sum(deltas), (dims, weights)
            if len(set(weights)) == 1:
                assert sv_hyperdet_degree(dims, weights[0]) == deltas[0], (dims, weights)
