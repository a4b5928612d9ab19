"""Property-based tests (hypothesis) for the core data structures.

These check algebraic invariants of the substrates the analysis is built on:
polynomial arithmetic, the polyhedral domain (projection and join are
over-approximations; entailment is a partial order), exponential-polynomial
closed forms, and the loop-free part of the transition-formula algebra.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from repro.formulas import Monomial, Polynomial, sym
from repro.polyhedra import LinearConstraint, Polyhedron, convex_hull_pair
from repro.recurrence import ExpPoly, geometric_convolution, solve_first_order

SYMBOLS = [sym(name) for name in ("x", "y", "z")]


@st.composite
def polynomials(draw, max_terms=4, max_degree=2, coefficients=None):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        powers = {}
        for symbol in draw(st.lists(st.sampled_from(SYMBOLS), max_size=max_degree)):
            powers[symbol] = powers.get(symbol, 0) + 1
        if coefficients is None:
            coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        else:
            coeff = Fraction(draw(coefficients))
        mono = Monomial.from_mapping(powers)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Polynomial(terms)


@st.composite
def assignments(draw):
    return {s: Fraction(draw(st.integers(-6, 6))) for s in SYMBOLS}


class TestPolynomialProperties:
    @given(polynomials(), polynomials(), assignments())
    @settings(max_examples=60, deadline=None)
    def test_addition_is_pointwise(self, p, q, env):
        assert (p + q).evaluate(env) == p.evaluate(env) + q.evaluate(env)

    @given(polynomials(), polynomials(), assignments())
    @settings(max_examples=60, deadline=None)
    def test_multiplication_is_pointwise(self, p, q, env):
        assert (p * q).evaluate(env) == p.evaluate(env) * q.evaluate(env)

    @given(
        # Coefficients of ±1 make terms that merge under a renaming cancel.
        polynomials(max_terms=6, max_degree=3, coefficients=st.sampled_from([-1, 1])),
        st.dictionaries(st.sampled_from(SYMBOLS), st.sampled_from(SYMBOLS), max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_renaming_matches_product_and_sum(self, p, renaming):
        """Substituting variables for variables (a renaming, possibly merging
        symbols) gives the terms, in the order, that substituting term by
        term with polynomial products and sums gives."""
        mapping = {s: Polynomial.var(t) for s, t in renaming.items()}
        expected = Polynomial.zero()
        for mono, coeff in p.items():
            term = Polynomial.constant(coeff)
            for symbol, power in mono.powers:
                term = term * (mapping.get(symbol, Polynomial.var(symbol)) ** power)
            expected = expected + term
        assert list(p.substitute(mapping).items()) == list(expected.items())

    @given(polynomials(), assignments())
    @settings(max_examples=60, deadline=None)
    def test_negation_cancels(self, p, env):
        assert (p + (-p)).is_zero or (p + (-p)).evaluate(env) == 0

    @given(polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_degree_of_product(self, p, q):
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree


def _boxes(draw_lo, draw_hi):
    x = SYMBOLS[0]
    lo, hi = sorted((draw_lo, draw_hi))
    return Polyhedron(
        [
            LinearConstraint.make({x: Fraction(-1)}, Fraction(lo)),   # x >= lo... -x + lo <= 0
            LinearConstraint.make({x: Fraction(1)}, Fraction(-hi)),   # x <= hi
        ]
    )


class TestPolyhedraProperties:
    @given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_join_over_approximates_both(self, a, b, c, d):
        first = _boxes(a, b)
        second = _boxes(c, d)
        hull = convex_hull_pair(first, second)
        assert hull.contains(first)
        assert hull.contains(second)

    @given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_meet_is_contained_in_both(self, a, b, shift):
        first = _boxes(a, b)
        second = _boxes(a + shift, b + shift)
        meet = first.meet(second)
        if not meet.is_empty():
            assert first.contains(meet)
            assert second.contains(meet)

    @given(st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_projection_over_approximates(self, a, b):
        x, y = SYMBOLS[0], SYMBOLS[1]
        box = _boxes(a, b)
        tied = box.add_constraints(
            [LinearConstraint.make({y: Fraction(1), x: Fraction(-1)}, 0, )]
        )
        projected = tied.project_onto([x])
        assert projected.contains(tied.project_onto([x]))
        # Every constraint of the projection is implied by the original.
        for constraint in projected.constraints:
            assert tied.entails(constraint)


class TestRecurrenceProperties:
    @given(st.integers(1, 4), st.integers(0, 5), st.integers(-3, 3), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_first_order_closed_form_matches_iteration(self, a, g_const, v0, steps):
        closed = solve_first_order(a, ExpPoly.constant(g_const), v0, 0)
        value = sympy.Integer(v0)
        for k in range(steps + 1):
            if k >= closed.valid_from:
                assert sympy.simplify(closed.evaluate(k) - value) == 0
            value = a * value + g_const

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_convolution_matches_literal_sum(self, a, base, upto):
        g = ExpPoly.exponential(base)
        closed = geometric_convolution(a, g)
        for n in range(upto):
            literal = sum(sympy.Integer(a) ** (n - 1 - m) * base**m for m in range(n))
            assert sympy.simplify(closed.evaluate(n) - literal) == 0

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_exppoly_ring_laws(self, c1, c2, at):
        e1 = ExpPoly.exponential(2, c1) + ExpPoly.variable()
        e2 = ExpPoly.constant(c2)
        left = (e1 + e2).evaluate(at)
        assert sympy.simplify(left - (e1.evaluate(at) + e2.evaluate(at))) == 0
        product = (e1 * e2).evaluate(at)
        assert sympy.simplify(product - (e1.evaluate(at) * e2.evaluate(at))) == 0
