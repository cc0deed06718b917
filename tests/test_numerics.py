import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serialsum.lambda_sums import confluent_divided_difference_cond
from serialsum.numerics import DegenerateJetError, Jet


def jet_of_square(center, order):
    return Jet.identity(center, order) ** 2


def jet_of_cube(center, order):
    return Jet.identity(center, order) ** 3


def confluent_divided_difference(nodes, f_jets):
    """The residue sum of `lambda_sums` on the coefficients of each jet, at
    (node, multiplicity) pairs, with no root factors."""
    residues, _ = confluent_divided_difference_cond(
        [(x,) * m for x, m in nodes], [j.coeffs for j in f_jets], ())
    return sum(residues)


class TestJetArithmetic:
    def test_mul_polynomial_identity(self):
        # (1+x)(1-x) = 1 - x^2 at order 2
        x = Jet.identity(0.0, 2)
        one = Jet.constant(1.0, 0.0, 2)
        prod = (one + x) * (one - x)
        assert prod.coeffs == (1 + 0j, 0j, -1 + 0j)

    def test_div_geometric_series(self):
        x = Jet.identity(0.0, 3)
        one = Jet.constant(1.0, 0.0, 3)
        q = one / (one - x)
        assert q.coeffs == (1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)

    def test_add_zero_identity(self):
        j = Jet(0.3, (1.5 + 0j, -2 + 0j, 0.25 + 0j))
        zero = Jet.constant(0.0, 0.3, 2)
        assert (j + zero).coeffs == j.coeffs

    def test_div_zero_constant_term(self):
        x = Jet.identity(0.0, 2)
        with pytest.raises(DegenerateJetError):
            Jet.constant(1.0, 0.0, 2) / x

    def test_mismatched_centers(self):
        with pytest.raises(ValueError):
            Jet.identity(0.0, 2) + Jet.identity(1.0, 2)

    def test_mismatched_orders(self):
        with pytest.raises(ValueError):
            Jet.identity(0.0, 2) * Jet.identity(0.0, 3)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Jet(0.0, (float("nan"),))


class TestJetPow:
    def test_square_of_x(self):
        x = Jet.identity(0.0, 2)
        assert (x**2).coeffs == (0j, 0j, 1 + 0j)

    def test_pow_zero_is_one(self):
        j = Jet(0.7, (2 + 1j, 3 + 0j))
        assert (j**0).coeffs == (1 + 0j, 0j)

    def test_cube_at_half(self):
        # d/dx x^3 at 0.5 is 0.75
        j = Jet.identity(0.5, 1) ** 3
        assert j.coeffs[0] == pytest.approx(0.125)
        assert j.coeffs[1] == pytest.approx(0.75)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Jet.identity(0.0, 1) ** -1

    def test_derivatives_match_finite_differences(self):
        # f(x) = x^2 / (1 - x/2): jet coefficients at order 3 vs central
        # differences of the same rational function
        def f(x):
            return x * x / (1 - x / 2)

        c = 0.3
        x = Jet.identity(c, 3)
        one = Jet.constant(1.0, c, 3)
        half = Jet.constant(0.5, c, 3)
        jet = (x * x) / (one - half * x)
        h = 1e-5
        d1 = (f(c + h) - f(c - h)) / (2 * h)
        d2 = (f(c + h) - 2 * f(c) + f(c - h)) / h**2
        assert jet.coeffs[0] == pytest.approx(f(c), rel=1e-12)
        assert jet.coeffs[1].real == pytest.approx(d1, abs=1e-8)
        assert 2 * jet.coeffs[2].real == pytest.approx(d2, abs=1e-5)


class TestConfluentDividedDifference:
    def test_square_two_nodes(self):
        nodes = [(1.0, 1), (2.0, 1)]
        jets = [jet_of_square(1.0, 0), jet_of_square(2.0, 0)]
        assert confluent_divided_difference(nodes, jets) == pytest.approx(3.0)

    def test_square_double_node_is_derivative(self):
        nodes = [(1.0, 2)]
        jets = [jet_of_square(1.0, 1)]
        assert confluent_divided_difference(nodes, jets) == pytest.approx(2.0)

    def test_cube_three_nodes(self):
        nodes = [(0.0, 1), (1.0, 1), (2.0, 1)]
        jets = [jet_of_cube(v, 0) for v, _ in nodes]
        assert confluent_divided_difference(nodes, jets) == pytest.approx(3.0)

    @pytest.mark.parametrize("a, b", [(0.3, -0.7), (0.5 + 0.2j, 0.5 - 0.2j), (2.0, 1.9)])
    @pytest.mark.parametrize("power", [3, 4, 5])
    def test_triple_beside_double_node_is_exact_within_the_scale(self, a, b, power):
        # over {a, a, a, b, b}, x^3 has no fourth difference, x^4 has its
        # leading coefficient and x^5 the sum of the nodes
        exact = {3: 0, 4: 1, 5: 3 * a + 2 * b}[power]
        nodes = [(a,) * 3, (b,) * 2]
        coeffs = [(Jet.identity(xs[0], len(xs) - 1) ** power).coeffs for xs in nodes]
        residues, scale = confluent_divided_difference_cond(nodes, coeffs, ())
        value = sum(residues)
        assert abs(value - exact) <= sys.float_info.epsilon * scale

    def test_single_node_high_multiplicity(self):
        # f(x) = x^3, multiplicity 3 at x=0.5 -> f''(0.5)/2! = 1.5
        nodes = [(0.5, 3)]
        jets = [jet_of_cube(0.5, 2)]
        assert confluent_divided_difference(nodes, jets) == pytest.approx(1.5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-3, max_value=3),
            min_size=2,
            max_size=4,
            unique_by=lambda v: round(v, 1),
        )
    )
    def test_distinct_matches_naive_formula(self, values):
        # f(x) = x^3; naive symmetric formula sum f(x_i)/prod(x_i - x_j)
        scale = 1.0 + max(abs(v) for v in values)
        if min(
            abs(a - b)
            for i, a in enumerate(values)
            for b in values[i + 1:]
        ) <= 1e-2 * scale:
            return
        nodes = [(v, 1) for v in values]
        jets = [jet_of_cube(v, 0) for v in values]
        got = confluent_divided_difference(nodes, jets)
        naive = sum(
            v**3 / math.prod(v - w for w in values if w != v) for v in values
        )
        assert got == pytest.approx(naive, rel=1e-12, abs=1e-12)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            values = rng.uniform(-2, 2, size=3)
            if min(
                abs(values[0] - values[1]),
                abs(values[0] - values[2]),
                abs(values[1] - values[2]),
            ) < 0.05:
                continue
            mults = rng.integers(1, 3, size=3)
            order = int(mults.max())
            nodes = [(float(v), int(m)) for v, m in zip(values, mults)]
            jets = {float(v): jet_of_cube(float(v), order) for v in values}
            ref = confluent_divided_difference(
                nodes, [jets[v] for v, _ in nodes]
            )
            perm = rng.permutation(3)
            pnodes = [nodes[i] for i in perm]
            got = confluent_divided_difference(
                pnodes, [jets[v] for v, _ in pnodes]
            )
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_merging_limit_richardson(self):
        # divided difference over {x, x+eps} of a smooth rational function
        # converges to the multiplicity-2 value at x as eps -> 0
        x0 = 0.4

        def f_jet(center, order):
            x = Jet.identity(center, order)
            one = Jet.constant(1.0, center, order)
            return (x * x) / (one - x * Jet.constant(0.5, center, order))

        target = confluent_divided_difference([(x0, 2)], [f_jet(x0, 1)])
        errors = []
        for eps in (1e-4, 1e-5, 1e-6):
            nodes = [(x0, 1), (x0 + eps, 1)]
            jets = [f_jet(v, 0) for v, _ in nodes]
            got = confluent_divided_difference(nodes, jets)
            errors.append(abs(got - target))
        assert errors[0] > errors[1] > errors[2]
        # error should fall roughly linearly in eps
        assert errors[1] < 0.2 * errors[0]
        assert errors[2] < 0.2 * errors[1]
