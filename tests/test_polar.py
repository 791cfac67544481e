"""Polar class tests: Chern data, dual degrees along two routes, and the
exhaustive binomial identities."""

from __future__ import annotations

import random
from collections import Counter
from functools import reduce
from itertools import product
from math import comb, factorial

import pytest

from segre_degrees import polar
from segre_degrees.eddeg import generic_ed_degree
from segre_degrees.hyperdet import (hyperdet_degree, is_dual_nondefective, partition_formats,
                                    sv_hyperdet_degree)
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
    g_identity_holds,
    identity_sweep,
    stabilization_ratio_check,
)
from segre_degrees.combinat import binomial
from segre_degrees.polar import _alpha_dots, _identity_rounds, _running_sums

from ring_oracle import (binomial_alpha_coefficients, binomial_alternating_identity_holds,
                         binomial_alternating_sum, binomial_polar_class, comb_column_dots,
                         comb_column_f,
                         fraction_g_identity_holds, fraction_g_sum,
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
    assert dual_profile(p1).deltas[0] == 0
    seg = chern_data_projective_space_product((1, 1))
    assert dual_profile(seg).deltas[0] == 2  # dual of the quadric surface is a quadric

    # P^n: zero conormal coefficients, empty dual of codimension n+1
    for n in range(1, 6):
        profile = dual_profile(chern_data_projective_space_product((n,)))
        assert profile.deltas[:n] == (0,) * n
        assert profile.dual_codim == n + 1

    cube = dual_profile(chern_data_projective_space_product((1, 1, 1)))
    assert cube.deltas[0] == 4
    assert cube.dual_codim == 1


def test_the_taylor_shift_equals_the_per_term_polar_sums():
    """Every delta_i of ``dual_profile`` against the sum with one binomial per
    term."""
    hypersurfaces = [chern_data_smooth_hypersurface(n, d) for n in range(13) for d in range(1, 5)]
    formats = [chern_data_projective_space_product(dims) for dims in partition_formats(12)]
    rng = random.Random(7)
    pairs = [chern_data_product(*rng.sample(hypersurfaces + formats, 2)) for _ in range(60)]
    long_factor = chern_data_projective_space_product((1, 1, 150))
    for cd in [*hypersurfaces, *formats, *pairs, long_factor]:
        oracle = tuple(binomial_polar_class(cd, i) for i in range(cd.dim + 1))
        assert dual_profile(cd).deltas == oracle, cd.class_degrees


def test_dual_degree_of_smooth_hypersurfaces_is_classical():
    # deg(Y^dual) = d (d-1)^n for a smooth degree-d hypersurface in P^(n+1)
    for n in range(0, 5):
        for d in range(2, 5):
            profile = dual_profile(chern_data_smooth_hypersurface(n, d))
            assert profile.deltas[0] == d * (d - 1) ** n


def test_polar_nonnegativity_on_products():
    for dims in partition_formats(8):
        cd = chern_data_projective_space_product(dims)
        assert min(dual_profile(cd).deltas) >= 0


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
    """Whitney products from class degrees alone against the multigraded ring,
    which multiplies the total Chern classes: X x Y_n and (X x Y_n) x Y_k."""
    for dims in [(1,), (1, 1), (1, 2), (2, 3), (1, 1, 1)]:
        x = chern_data_projective_space_product(dims)
        x_ring = ring_chern_projective_space_product(dims)
        for n in range(8):
            for d in range(1, 5):
                y = chern_data_smooth_hypersurface(n, d)
                y_ring = ring_chern_smooth_hypersurface(n, d)
                assert y.class_degrees == ring_chern_degrees(y_ring, d)
                xy_ring = ring_chern_product(x_ring, y_ring)
                assert chern_data_product(x, y).class_degrees == \
                    ring_chern_degrees(xy_ring, d), (dims, n, d)
                k, e = n % 3, 5 - d  # a second hypersurface Y_k of degree e
                assert chern_data_product(chern_data_product(x, y),
                                          chern_data_smooth_hypersurface(k, e)).class_degrees == \
                    ring_chern_degrees(ring_chern_product(xy_ring, ring_chern_smooth_hypersurface(k, e)),
                                       d * e), (dims, n, d, k, e)


def _veronese(n, w):
    """P^n embedded by O(w), from its class degrees alone: c(P^n) = (1 + x)^(n+1)
    and h = w x, so deg(c_j h^(n-j)) = C(n+1, j) w^(n-j)."""
    return ChernData(n, [comb(n + 1, j) * w ** (n - j) for j in range(n + 1)])


def test_degree_only_products_of_veronese_factors_meet_dhost():
    """Segre-Veronese products from degree-only factors: the polar classes sum to
    the generic ED degree (Draisma et al., FoCM 2016, Thm 5.4), and at equal
    weights delta_0 is the hyperdeterminant degree of ``sv_hyperdet_degree``."""
    assert chern_data_product(ChernData(1, (1, 2)), ChernData(1, (1, 2))) == \
        chern_data_projective_space_product((1, 1))
    cases = equal = 0
    for dims in partition_formats(7):
        if len(dims) > 4:
            continue
        for weights in product((1, 2, 3), repeat=len(dims)):
            cd = reduce(chern_data_product, map(_veronese, dims, weights))
            deltas = dual_profile(cd).deltas
            assert sum(deltas) == generic_ed_degree(dims, weights), (dims, weights)
            cases += 1
            if len(set(weights)) == 1:
                assert deltas[0] == sv_hyperdet_degree(dims, weights[0]), (dims, weights)
                equal += 1
    assert (cases, equal) == (993, 111)


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


def _signed(values):
    return [-v if k & 1 else v for k, v in enumerate(values)]


def _rounds(n, passes):
    """``_identity_rounds(n)``, checked against its row (-1)^k C(n+2, k+1) built here
    and extended to ``passes`` rounds for the entries no production path reads."""
    rounds = _identity_rounds(n)
    wide = _running_sums(_signed(comb(n + 2, k + 1) for k in range(n + 3)), passes)
    assert wide[:n + 3] == rounds
    return wide


def _f(n, m):
    """f(n, m), entry n+1 of round m+1 of the rounds of n-1."""
    return _rounds(n - 1, max(m + 1, n + 1))[m + 1][n + 1]


def _g(n, j):
    """G(n, j) = (n+1)! (n+2)! g(n, j) = (n+1)! (j+1)! R(n, j), for R(n, j) entry n of
    round j+2 of the rounds of n (see ``g_identity_holds``)."""
    return factorial(n + 1) * factorial(j + 1) * _rounds(n, n + 2)[j + 2][n]


def test_running_sums_equal_the_comb_columns():
    """Every series read from ``polar._running_sums`` equals its binomial column
    built with one ``comb`` per term."""
    degrees = range(2, 7)
    for n in range(41):
        lows = range(1, n + 3)
        # (-1)^k g_k for the y^k coefficient g_k of (1+y)^(n+2) / (1+dy)
        rows = [_signed(sum(comb(n + 2, j) * (-d) ** (k - j) for j in range(k + 1))
                        for k in range(n + 1)) for d in degrees]
        dots = comb_column_dots(rows, n, lows)
        assert _alpha_dots(n, degrees, n + 2) == dots
        for d, row in zip(degrees, dots):
            for m in range(n + 2):
                assert alpha_coefficients(n, m, d) == \
                    [(-d if i & 1 else d) * row[m - i] for i in range(m + 1)]
        alternating = _signed(comb(n + 2, k + 1) for k in range(n + 1))
        rounds = _rounds(n, n + 3)
        assert [low * rounds[low + 1][n] for low in lows] == \
            comb_column_dots([alternating], n, lows)[0]
        f_row = _signed(comb(n + 1, r + 1) for r in range(n + 1))
        assert [_f(n, m) for m in range(n + 3)] == \
            [comb_column_f(f_row, m) for m in range(n + 3)]


def test_identity_sums_match_their_oracles():
    for n in range(23):
        rounds = _identity_rounds(n)
        for m in range(n + 1):
            for i in range(m + 1):
                # the production dot is (-1)^i times the left-hand side, read by low = m - i + 1
                lhs = (-1) ** i * (m - i + 1) * rounds[m - i + 2][n]
                assert lhs == binomial_alternating_sum(n, m, i)
                assert alternating_binomial_identity_holds(n, m, i) == \
                    binomial_alternating_identity_holds(n, m, i)
        for j in range(1, n + 1):
            assert g_identity_holds(n, j) == fraction_g_identity_holds(n, j)
    for n in range(41):
        for j in range(1, n + 1):
            assert _g(n, j) == fraction_g_sum(n, j) * factorial(n + 1) * factorial(n + 2)


def test_identity_sweep_compares_each_alternating_dot_once(monkeypatch):
    calls = Counter()
    original = polar._alternating_holds

    def counted(n, low, dot):
        calls[n, low] += 1
        return original(n, low, dot)

    monkeypatch.setattr(polar, "_alternating_holds", counted)
    max_n = 12
    lines = []
    identity_sweep(max_n, lines.append)
    assert lines == []
    # one comparison per (n, low), so sum_{n <= max_n} (n + 1) in all
    assert calls == Counter((n, low) for n in range(max_n + 1) for low in range(1, n + 2))


@pytest.mark.parametrize("fault", [None, (-1, 1, 1), (2, 1, 4), (3, 3, 3), (5, 4, 5),
                                   (6, 7, 8), (11, 3, 11)])
def test_the_single_case_checks_agree_with_the_sweep(monkeypatch, fault):
    """On every case with n <= 10 the sweep reports, in its order, exactly the cases whose
    single-case check fails: with no fault none, and with entry k of round t of the
    ``_identity_rounds`` of one row n = -1 .. 11 one too large, each case that reads it."""
    if fault:
        row, t, k = fault
        original = polar._identity_rounds

        def perturbed(n):
            rounds = original(n)
            if n == row:
                rounds[t][k] += 1
            return rounds

        monkeypatch.setattr(polar, "_identity_rounds", perturbed)
    lines = []
    identity_sweep(10, lines.append)
    wanted = []
    for n in range(11):
        for m in range(n + 1):
            wanted += [f"binomial identity failed at n={n} m={m} i={i}"
                       for i in range(m + 1) if not alternating_binomial_identity_holds(n, m, i)]
            wanted += [f"f identity failed at n={n} m={m}"] * (not f_identity_holds(n, m))
        wanted += [f"g identity failed at n={n} j={j}"
                   for j in range(1, n + 1) if not g_identity_holds(n, j)]
    assert lines == wanted
    assert bool(lines) == bool(fault)


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
    # and at a long quadric: P2 x P2 has dimension 4
    x = chern_data_projective_space_product((2, 2))
    assert delta0_product_with_hypersurface(x, 3000, 2) == \
        delta0_product_with_hypersurface(x, 4, 2) == 258


def test_quadric_products_stabilize_at_twice_the_weighted_polar_sum():
    """An observation: from n = dim X on, delta_0(X x Q_n) equals
    2 * sum_i (i+1) delta_i(X), with delta_i from ``dual_profile``, and at
    n = dim X - 1 it differs.  X runs over every product of projective
    spaces with sum n <= 6 (29 formats) and over Y x P^b for every smooth
    hypersurface Y of dimension 1-3 and degree 2-4, b = 0..2 (27 products)."""
    bases = [chern_data_projective_space_product(dims) for dims in partition_formats(6)]
    bases += [chern_data_product(chern_data_smooth_hypersurface(a, e),
                                 chern_data_projective_space_product((b,)))
              for a, e, b in product(range(1, 4), range(2, 5), range(3))]
    assert len(bases) == 56
    for x in bases:
        stable = 2 * sum((i + 1) * delta for i, delta in enumerate(dual_profile(x).deltas))
        for n in range(x.dim, x.dim + 3):
            assert delta0_product_with_hypersurface(x, n, 2) == stable, (x, n)
        assert delta0_product_with_hypersurface(x, x.dim - 1, 2) != stable, x


def test_alternating_binomial_identity():
    # n=1, m=1, i=0: both sides equal 12 by direct summation
    assert alternating_binomial_identity_holds(1, 1, 0)
    assert alternating_binomial_identity_holds(1, 1, 1)
    assert alternating_binomial_identity_holds(5, 3, 2)
    with pytest.raises(ValueError):
        alternating_binomial_identity_holds(1, 2, 0)


def test_f_identity_values_and_recurrence():
    assert _f(1, 1) == 4 == binomial(4, 1)
    for m in range(8):
        assert _f(m, m) == binomial(2 * m + 2, m)
    assert f_identity_holds(10, 4)
    for n in range(16):
        for m in range(n + 1):
            assert f_identity_holds(n, m)


def test_g_identity_values_and_recurrence():
    assert _g(1, 1) == 2 * factorial(2) * factorial(3)  # g(1, 1) = 2
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
    # positional construction runs the same checks in __new__
    with pytest.raises(ValueError):
        ChernData(1, (1,))
    with pytest.raises(TypeError):
        ChernData(1, (1, 2), ((1, 2, 1),))
    # the class degrees are normalized to a tuple
    cd = ChernData(1, [2, 4])
    assert cd == ChernData(dim=1, class_degrees=(2, 4))
    assert cd.class_degrees == (2, 4) and type(cd.class_degrees) is tuple
    assert repr(cd) == "ChernData(dim=1, class_degrees=(2, 4))"
