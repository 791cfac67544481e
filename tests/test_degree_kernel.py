"""The shared univariate kernel behind every exact degree, checked against
the truncated-ring and Fraction expansions of ``ring_oracle``, the polar
route, closed forms, and the symmetries of the degrees."""

from __future__ import annotations

import random
from itertools import product
from math import factorial, prod

from segre_degrees.combinat import multinomial, multinomial_fold
from segre_degrees.eddeg import binary_generic_ed_degree, frobenius_ed_degree, generic_ed_degree
from segre_degrees.hyperdet import (
    binary_hyperdet_degree,
    hyperdet_degree,
    partition_formats,
    sv_hyperdet_degree,
)
from segre_degrees.polar import chern_data_projective_space_product, dual_profile

from ring_oracle import (fraction_generic_ed_degree, ring_frobenius_ed_degree,
                         ring_sv_hyperdet_degree)


def random_format(rng: random.Random, max_total: int, max_factors: int) -> tuple:
    d = rng.randint(1, max_factors)
    while True:
        dims = tuple(rng.randint(0, max_total) for _ in range(d))
        if sum(dims) <= max_total:
            return dims


def test_fold_is_the_multinomial_sum():
    rng = random.Random(11)
    for _ in range(40):
        lists = [[rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
                 for _ in range(rng.randint(1, 4))]
        expected = [0] * (sum(len(a) for a in lists) - len(lists) + 1)
        for ks in product(*(range(len(a)) for a in lists)):
            expected[sum(ks)] += multinomial(ks) * prod(a[k] for a, k in zip(lists, ks))
        assert multinomial_fold(lists) == expected
    assert multinomial_fold([]) == [1]


def test_kernel_matches_ring_and_fraction_oracles():
    rng = random.Random(3)
    for _ in range(80):
        dims = random_format(rng, 10, 6)
        weight = rng.randint(1, 3)
        weights = tuple(rng.randint(1, 3) for _ in dims)
        assert sv_hyperdet_degree(dims, weight) == ring_sv_hyperdet_degree(dims, weight), dims
        assert frobenius_ed_degree(dims) == ring_frobenius_ed_degree(dims), dims
        assert generic_ed_degree(dims, weights) == fraction_generic_ed_degree(dims, weights), dims


def test_kernel_matches_polar_delta0():
    for dims in partition_formats(10):
        polar = dual_profile(chern_data_projective_space_product(dims)).deltas[0]
        assert hyperdet_degree(dims) == polar, dims


def test_boundary_formats_closed_form():
    # n1 = n2 + ... + nd gives (n1 + 1)! / prod_{j>=2} n_j!
    rng = random.Random(5)
    for _ in range(300):
        rest = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        dims = [sum(rest)] + rest
        expected = factorial(dims[0] + 1) // prod(factorial(n) for n in rest)
        rng.shuffle(dims)
        assert hyperdet_degree(dims) == expected, dims


def test_products_of_lines_closed_forms():
    for d in range(1, 41):
        lines = (1,) * d
        assert hyperdet_degree(lines) == binary_hyperdet_degree(d)
        assert generic_ed_degree(lines) == binary_generic_ed_degree(d)
        assert frobenius_ed_degree(lines) == factorial(d)


def test_permutation_invariance():
    rng = random.Random(9)
    for _ in range(60):
        dims = random_format(rng, 14, 5)
        weights = [rng.randint(1, 3) for _ in dims]
        values = (sv_hyperdet_degree(dims, 2), frobenius_ed_degree(dims),
                  generic_ed_degree(dims, weights))
        order = list(range(len(dims)))
        rng.shuffle(order)
        shuffled = [dims[i] for i in order]
        assert (sv_hyperdet_degree(shuffled, 2), frobenius_ed_degree(shuffled),
                generic_ed_degree(shuffled, [weights[i] for i in order])) == values


def test_defective_formats_have_degree_zero():
    rng = random.Random(13)
    for _ in range(100):
        rest = [rng.randint(0, 8) for _ in range(rng.randint(1, 4))]
        dims = [sum(rest) + rng.randint(1, 8)] + rest
        rng.shuffle(dims)
        assert hyperdet_degree(dims) == 0, dims


def test_frobenius_stabilizes_from_the_base_dimension():
    rng = random.Random(17)
    for _ in range(30):
        base = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        n_total = sum(base)
        stable = frobenius_ed_degree(base + (n_total,))
        for m in range(n_total + 1, n_total + 6):
            assert frobenius_ed_degree(base + (m,)) == stable, (base, m)
