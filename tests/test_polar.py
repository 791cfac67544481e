"""Polar class tests: Chern data, dual degrees along two routes, and the
exhaustive binomial identities."""

from __future__ import annotations

from math import factorial

import pytest

from segre_degrees.hyperdet import hyperdet_degree, is_dual_nondefective, partition_formats
from segre_degrees.polar import (
    ChernData,
    alpha_coefficients,
    alternating_binomial_identity_holds,
    chern_data_product,
    chern_data_projective_space_product,
    chern_data_smooth_hypersurface,
    delta0_product_with_hypersurface,
    dual_profile,
    f_identity_holds,
    f_sum,
    g_identity_holds,
    polar_class,
    stabilization_ratio_check,
)
from segre_degrees.combinat import binomial
from segre_degrees.polar import _alternating_sum, _g_scaled

from ring_oracle import (binomial_alpha_coefficients, binomial_alternating_identity_holds,
                         binomial_alternating_sum, fraction_g_identity_holds, fraction_g_sum,
                         ring_chern_degrees, ring_chern_product,
                         ring_chern_projective_space_product, ring_chern_smooth_hypersurface)


def test_chern_data_products_of_projective_spaces():
    cd = chern_data_projective_space_product((1, 1))
    assert cd.dim == 2
    assert cd.class_degrees == (2, 4, 4)
    single = chern_data_projective_space_product((4,))
    assert single.class_degrees == tuple(binomial(5, j) for j in range(5))
    assert chern_data_projective_space_product((1, 1, 1)).class_degrees[0] == 6


def test_chern_data_smooth_hypersurface():
    assert chern_data_smooth_hypersurface(0, 2).class_degrees == (2,)
    # conic: degree 2 and Euler characteristic 2
    assert chern_data_smooth_hypersurface(1, 2).class_degrees == (2, 2)
    assert chern_data_smooth_hypersurface(2, 2).class_degrees[0] == 2
    # a degree-1 hypersurface is P^n itself
    assert chern_data_smooth_hypersurface(3, 1).class_degrees == \
        chern_data_projective_space_product((3,)).class_degrees


def test_quadric_surface_matches_segre_of_two_lines():
    # Q_2 in P^3 is P^1 x P^1: identical class degrees and polar classes
    q2 = chern_data_smooth_hypersurface(2, 2)
    seg = chern_data_projective_space_product((1, 1))
    assert q2.class_degrees == seg.class_degrees
    assert dual_profile(q2) == dual_profile(seg)


def test_polar_classes_and_dual_profiles():
    p1 = chern_data_projective_space_product((1,))
    assert polar_class(p1, 0) == 0
    seg = chern_data_projective_space_product((1, 1))
    assert polar_class(seg, 0) == 2  # dual of the quadric surface is a quadric
    with pytest.raises(ValueError):
        polar_class(seg, 3)

    # P^n: zero conormal coefficients, empty dual of codimension n+1
    for n in range(1, 6):
        profile = dual_profile(chern_data_projective_space_product((n,)))
        assert profile.deltas[:n] == (0,) * n
        assert profile.dual_codim == n + 1

    cube = dual_profile(chern_data_projective_space_product((1, 1, 1)))
    assert cube.deltas[0] == 4
    assert cube.dual_codim == 1


def test_dual_degree_of_smooth_hypersurfaces_is_classical():
    # deg(Y^dual) = d (d-1)^n for a smooth degree-d hypersurface in P^(n+1)
    for n in range(0, 5):
        for d in range(2, 5):
            profile = dual_profile(chern_data_smooth_hypersurface(n, d))
            assert profile.deltas[0] == d * (d - 1) ** n


def test_polar_nonnegativity_on_products():
    for dims in partition_formats(8):
        cd = chern_data_projective_space_product(dims)
        for i in range(cd.dim + 1):
            assert polar_class(cd, i) >= 0


def test_dual_degree_cross_oracle():
    for dims in partition_formats(7):
        delta0 = dual_profile(chern_data_projective_space_product(dims)).deltas[0]
        assert delta0 == hyperdet_degree(dims)
        assert (delta0 == 0) == (not is_dual_nondefective(dims))


def test_class_degrees_match_the_ring_oracle():
    # the per-factor fold against the multigraded ring, one multinomial per cell
    formats = [*partition_formats(10), (0,), (0, 0), (0, 1), (2, 0, 1), (0, 0, 3), (1, 0, 1, 2)]
    for dims in formats:
        assert chern_data_projective_space_product(dims).class_degrees == \
            ring_chern_degrees(ring_chern_projective_space_product(dims), 1), dims


def test_products_with_hypersurfaces_match_the_ring_oracle():
    for dims in [(1,), (1, 1), (1, 2), (2, 3), (1, 1, 1)]:
        x = chern_data_projective_space_product(dims)
        x_ring = ring_chern_projective_space_product(dims)
        for n in range(8):
            for d in range(1, 5):
                y = chern_data_smooth_hypersurface(n, d)
                y_ring = ring_chern_smooth_hypersurface(n, d)
                assert y.class_degrees == ring_chern_degrees(y_ring, d)
                assert chern_data_product(x, y).class_degrees == \
                    ring_chern_degrees(ring_chern_product(x_ring, y_ring), d), (dims, n, d)


def test_chern_data_product_requires_polynomials():
    bare = ChernData(dim=1, class_degrees=(1, 2))
    with pytest.raises(ValueError):
        chern_data_product(bare, bare)


def test_chern_data_product_consistency():
    p1 = chern_data_projective_space_product((1,))
    assert chern_data_product(p1, p1).class_degrees == \
        chern_data_projective_space_product((1, 1)).class_degrees
    p12 = chern_data_product(p1, chern_data_projective_space_product((2,)))
    assert p12.class_degrees == chern_data_projective_space_product((1, 2)).class_degrees


def test_dual_degrees_of_product_with_quadric():
    base = chern_data_projective_space_product((1, 1))
    expected = [4, 12, 24, 24, 24, 24]
    for n, want in enumerate(expected):
        via_alpha = delta0_product_with_hypersurface(base, n, 2)
        product = chern_data_product(base, chern_data_smooth_hypersurface(n, 2))
        via_product = dual_profile(product).deltas[0]
        assert via_alpha == want
        assert via_product == want


def test_alpha_point_case_and_lemma_consistency():
    # X a point, Y_0 two points in P^1: the dual is two points, degree 2
    point = ChernData(dim=0, class_degrees=(1,))
    assert alpha_coefficients(0, 0, 2) == [2]
    assert delta0_product_with_hypersurface(point, 0, 2) == 2
    # product route agrees with the coefficient route for every X of
    # dimension <= 3 in the sweep
    for dims in [(1,), (2,), (3,), (1, 1), (1, 2), (1, 1, 1)]:
        x = chern_data_projective_space_product(dims)
        for n in range(6):
            for d in (2, 3):
                lhs = delta0_product_with_hypersurface(x, n, d)
                rhs = dual_profile(
                    chern_data_product(x, chern_data_smooth_hypersurface(n, d))).deltas[0]
                assert lhs == rhs


def test_alpha_ratio_step():
    for m in range(11):
        for d in range(2, 6):
            lower = alpha_coefficients(m, m, d)
            upper = alpha_coefficients(m + 1, m, d)
            assert upper == [(d - 1) * a for a in lower]


def test_alpha_coefficients_match_the_full_range_sum():
    # the integer route sums only s <= n+i after a term-by-term rewrite; the
    # oracle sums every s of the defining range with the zero-extended binomial
    for n in range(17):
        for m in range(17):
            for d in range(1, 6):
                assert alpha_coefficients(n, m, d) == binomial_alpha_coefficients(n, m, d)


def test_identity_sums_match_their_oracles():
    for n in range(23):
        for m in range(n + 1):
            for i in range(m + 1):
                assert _alternating_sum(n, m, i) == binomial_alternating_sum(n, m, i)
                assert alternating_binomial_identity_holds(n, m, i) == \
                    binomial_alternating_identity_holds(n, m, i)
        for j in range(1, n + 1):
            assert _g_scaled(n, j) == fraction_g_sum(n, j) * factorial(n + 1) * factorial(n + 2)
            assert g_identity_holds(n, j) == fraction_g_identity_holds(n, j)


def test_stabilization_ratio_check_report():
    lines = []
    # cases (n, m, d, i) with 0 <= i <= m <= 6, m <= n < 12 and d in 2..4
    assert stabilization_ratio_check(6, 12, 4, lines.append) == \
        3 * sum((m + 1) * (12 - m) for m in range(7))
    assert lines == []
    with pytest.raises(ValueError):
        stabilization_ratio_check(2, 2, 1, lines.append)


def test_quadric_product_threshold_matches_defect_criterion():
    # (X x Q_n)^dual is a hypersurface exactly when n >= codim(X^dual) - 1
    for dims in partition_formats(5):
        x = chern_data_projective_space_product(dims)
        threshold = dual_profile(x).dual_codim - 1
        for n in range(min(threshold + 3, 8)):
            delta0 = delta0_product_with_hypersurface(x, n, 2)
            assert (delta0 != 0) == (n >= threshold)


def test_quadric_stabilization_from_dimension_on():
    for dims in [(1,), (1, 1), (1, 2), (3,)]:
        x = chern_data_projective_space_product(dims)
        m = x.dim
        stable = delta0_product_with_hypersurface(x, m, 2)
        for n in range(m, m + 4):
            assert delta0_product_with_hypersurface(x, n, 2) == stable


def test_alternating_binomial_identity():
    # n=1, m=1, i=0: both sides equal 12 by direct summation
    assert alternating_binomial_identity_holds(1, 1, 0)
    assert alternating_binomial_identity_holds(1, 1, 1)
    assert alternating_binomial_identity_holds(5, 3, 2)
    with pytest.raises(ValueError):
        alternating_binomial_identity_holds(1, 2, 0)


def test_f_identity_values_and_recurrence():
    assert f_sum(1, 1) == 4 == binomial(4, 1)
    for m in range(8):
        assert f_sum(m, m) == binomial(2 * m + 2, m)
    assert f_identity_holds(10, 4)
    for n in range(16):
        for m in range(n + 1):
            assert f_identity_holds(n, m)


def test_g_identity_values_and_recurrence():
    assert _g_scaled(1, 1) == 2 * factorial(2) * factorial(3)  # g(1, 1) = 2
    assert g_identity_holds(8, 3)
    for n in range(1, 16):
        for j in range(1, n + 1):
            assert g_identity_holds(n, j)
    with pytest.raises(ValueError):
        g_identity_holds(2, 0)


def test_chern_data_validation():
    with pytest.raises(ValueError):
        ChernData(dim=-1, class_degrees=())
    with pytest.raises(ValueError):
        ChernData(dim=1, class_degrees=(1,))
    with pytest.raises(ValueError):
        ChernData(dim=0, class_degrees=(0,))
    with pytest.raises(ValueError):
        ChernData(dim=0, class_degrees=(1,), point_degree=0)
    with pytest.raises(ValueError):
        ChernData(dim=1, class_degrees=(1, 2), factors=((1, 2, 1),))
    # positional construction runs the same checks in __new__
    with pytest.raises(ValueError):
        ChernData(1, (1,))
    with pytest.raises(ValueError):
        ChernData(1, (1, 2), ((1, 2, 1),), 1)
    # the class degrees are normalized to a tuple; the defaults fill the rest
    cd = ChernData(1, [2, 4])
    assert cd == ChernData(dim=1, class_degrees=(2, 4), factors=(), point_degree=1)
    assert cd.class_degrees == (2, 4) and type(cd.class_degrees) is tuple
    assert repr(cd) == "ChernData(dim=1, class_degrees=(2, 4), factors=(), point_degree=1)"
