"""Differential: the integer-row kernel against the ``Fraction`` kernel.

:class:`~repro.polyhedra.constraint.LinearConstraint` stores an integer row
over one common denominator where it used to store one ``Fraction`` per
coefficient.  The contract of that change is that every result is the one
the ``Fraction`` kernel computed, constraint for constraint and in the same
order.  ``fraction_reference`` keeps that kernel (constraint class,
projection, minimization, LP questions, hull) as a test-only reference;
these properties pin ``eliminate``, ``minimize_constraints``,
``is_satisfiable``, ``entails`` and ``convex_hull_pair`` against it on
random systems with rational coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from repro.formulas.symbols import Symbol, preserved_fresh_counter, reset_fresh_counter
from repro.polyhedra import Polyhedron, convex_hull_pair, eliminate, entails
from repro.polyhedra import is_satisfiable, minimize_constraints
from repro.polyhedra.cache import clear_caches
from repro.polyhedra.constraint import ConstraintKind, LinearConstraint

SYMBOLS = [Symbol(name) for name in ("w", "x", "y", "z")]

#: Small rationals: integral most of the time, so rows with a common
#: denominator of 1 and rows with a real one both occur.
coefficients = st.one_of(
    st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def constraints(draw, symbols=SYMBOLS):
    coeffs = {
        symbol: draw(coefficients)
        for symbol in draw(
            st.lists(st.sampled_from(symbols), min_size=1, max_size=3, unique=True)
        )
    }
    kind = draw(st.sampled_from([ConstraintKind.LE, ConstraintKind.LE, ConstraintKind.EQ]))
    return LinearConstraint.make(coeffs, draw(coefficients), kind)


def systems(max_size=6):
    return st.lists(constraints(), min_size=1, max_size=max_size)


def as_fraction(system):
    return [ref.FractionConstraint.of(c) for c in system]


def rows(fraction_system):
    return [c.to_row() for c in fraction_system]


@pytest.fixture(autouse=True)
def _cold_memo_tables():
    clear_caches(force=True)
    yield
    clear_caches(force=True)


class TestIntegerRowsMatchFractionKernel:
    @settings(max_examples=150, deadline=None)
    @given(systems(), st.lists(st.sampled_from(SYMBOLS), max_size=3, unique=True))
    def test_eliminate(self, system, symbols):
        clear_caches(force=True)
        assert eliminate(system, symbols) == rows(ref.eliminate(as_fraction(system), symbols))

    @settings(max_examples=150, deadline=None)
    @given(systems(max_size=7))
    def test_minimize_constraints(self, system):
        clear_caches(force=True)
        expected = rows(ref.minimize_constraints(as_fraction(system)))
        assert minimize_constraints(system) == expected

    @settings(max_examples=150, deadline=None)
    @given(systems(max_size=8))
    def test_is_satisfiable(self, system):
        clear_caches(force=True)
        assert is_satisfiable(system) == ref.is_satisfiable(as_fraction(system))

    @settings(max_examples=150, deadline=None)
    @given(systems(), constraints())
    def test_entails(self, system, candidate):
        clear_caches(force=True)
        expected = ref.entails(as_fraction(system), ref.FractionConstraint.of(candidate))
        assert entails(system, candidate) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        systems(max_size=4).map(lambda s: [c for c in s if not c.is_trivial]),
        systems(max_size=4).map(lambda s: [c for c in s if not c.is_trivial]),
    )
    def test_convex_hull_pair(self, first, second):
        clear_caches(force=True)
        with preserved_fresh_counter():
            reset_fresh_counter()
            hull = convex_hull_pair(Polyhedron(first), Polyhedron(second))
            reset_fresh_counter()
            expected = ref.convex_hull_pair(as_fraction(first), as_fraction(second))
        assert list(hull.constraints) == rows(expected)

    @settings(max_examples=200, deadline=None)
    @given(constraints())
    def test_boundary_rationals_round_trip(self, constraint):
        """The integer row emits exactly the rationals it was built from."""
        reference = ref.FractionConstraint.of(constraint)
        assert constraint.coeffs == reference.coeffs
        assert constraint.constant == reference.constant
        assert hash(constraint) == hash((reference.coeffs, reference.constant, reference.kind))
        assert constraint.normalize() == reference.normalize().to_row()
        lhs = " + ".join(f"{c}*{s}" for s, c in reference.coeffs) or "0"
        assert str(constraint) == f"{lhs} + {reference.constant} {reference.kind.value} 0"
        assert constraint.to_polynomial().terms == _polynomial_terms(reference)


def _polynomial_terms(reference):
    """The terms the Fraction constraint's ``to_polynomial`` produced."""
    from repro.formulas.polynomial import Monomial, Polynomial

    poly = Polynomial.constant(reference.constant)
    for s, c in reference.coeffs:
        poly = poly + Polynomial({Monomial.of(s): c})
    return poly.terms
