"""Differential properties: fraction-free integer simplex vs Fraction oracle.

The production solver (:mod:`repro.polyhedra.simplex`) runs a fraction-free
integer tableau.  ``fraction_reference`` keeps a self-contained copy of the
previous ``Fraction``-based dense tableau as an independent oracle, and this
module pins the two against each other on random LPs: statuses must match
exactly and optimal values must be equal as exact rationals.  Feasibility, boundedness and the
optimum of an LP are properties of the problem, not of the tableau
representation, so any divergence is a bug in one of the solvers.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fraction_reference import reference_maximize
from repro.formulas.symbols import Symbol
from repro.polyhedra.constraint import ConstraintKind, LinearConstraint
from repro.polyhedra.simplex import (
    exact_entails,
    exact_is_satisfiable,
    exact_maximize,
    kernel_stats,
    reset_kernel_stats,
)

# --------------------------------------------------------------------- #
# Random LP generation
# --------------------------------------------------------------------- #
SYMBOLS = [Symbol(name) for name in ("x", "y", "z", "w")]

#: Rationals with small numerators and denominators, so the entry scaling
#: (common-denominator multiplication) is genuinely exercised.
fractions = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)
)


@st.composite
def linear_constraints(draw):
    coeffs = {
        symbol: draw(fractions)
        for symbol in draw(
            st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True)
        )
    }
    kind = draw(
        st.sampled_from([ConstraintKind.LE, ConstraintKind.LE, ConstraintKind.EQ])
    )
    return LinearConstraint.make(coeffs, draw(fractions), kind)


@st.composite
def lp_problems(draw):
    constraints = draw(st.lists(linear_constraints(), min_size=1, max_size=6))
    objective = {
        symbol: draw(fractions)
        for symbol in draw(
            st.lists(st.sampled_from(SYMBOLS), min_size=0, max_size=3, unique=True)
        )
    }
    return objective, constraints


class TestIntegerTableauMatchesFractionOracle:
    @settings(max_examples=200, deadline=None)
    @given(lp_problems())
    def test_maximize_round_trip(self, problem):
        objective, constraints = problem
        expected_status, expected_value = reference_maximize(objective, constraints)
        result = exact_maximize(objective, constraints)
        assert result.status == expected_status
        if expected_status == "optimal":
            assert result.value == expected_value
            assert isinstance(result.value, Fraction)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(linear_constraints(), min_size=1, max_size=6))
    def test_satisfiability_round_trip(self, constraints):
        status, _ = reference_maximize({}, constraints)
        assert exact_is_satisfiable(constraints) == (status != "infeasible")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(linear_constraints(), min_size=1, max_size=5), linear_constraints())
    def test_entailment_round_trip(self, constraints, candidate):
        """``C |= t + d <= 0``  iff  ``sup t <= -d`` (or C is infeasible)."""
        if candidate.kind is ConstraintKind.EQ:
            candidate = LinearConstraint.make(
                candidate.coeff_map, candidate.constant, ConstraintKind.LE
            )
        status, value = reference_maximize(candidate.coeff_map, constraints)
        if status == "infeasible":
            expected = True
        elif status == "unbounded":
            expected = False
        else:
            expected = value <= -candidate.constant
        assert exact_entails(constraints, candidate) == expected

    @settings(max_examples=100, deadline=None)
    @given(lp_problems())
    def test_optimum_is_attained_and_tight(self, problem):
        """An optimal value must be attainable up to entailment: the system
        must entail ``objective <= value`` but not ``objective <= value - 1``."""
        objective, constraints = problem
        result = exact_maximize(objective, constraints)
        if not result.is_optimal or not objective:
            return
        upper = LinearConstraint.make(
            dict(objective), -result.value, ConstraintKind.LE
        )
        tighter = LinearConstraint.make(
            dict(objective), -result.value + 1, ConstraintKind.LE
        )
        assert exact_entails(constraints, upper)
        assert not exact_entails(constraints, tighter)


# --------------------------------------------------------------------- #
# Coefficients far beyond machine width.  The tableau is plain Python
# integers, so numerators around ±2^63 (and their products with the common
# denominators) must be solved exactly like small ones.
# --------------------------------------------------------------------- #
_near_int64 = st.one_of(
    st.integers(-(2**63) - 4, -(2**63 - 4)),
    st.integers(2**63 - 4, 2**63 + 4),
    st.integers(-(2**61), 2**61),
)

#: Small rationals mixed with huge ones.
extreme_fractions = st.one_of(
    fractions,
    st.builds(Fraction, _near_int64, st.integers(1, 3)),
)


@st.composite
def extreme_constraints(draw):
    coeffs = {
        symbol: draw(extreme_fractions)
        for symbol in draw(
            st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True)
        )
    }
    kind = draw(
        st.sampled_from([ConstraintKind.LE, ConstraintKind.LE, ConstraintKind.EQ])
    )
    return LinearConstraint.make(coeffs, draw(extreme_fractions), kind)


@st.composite
def extreme_lp_problems(draw):
    constraints = draw(st.lists(extreme_constraints(), min_size=1, max_size=6))
    objective = {
        symbol: draw(extreme_fractions)
        for symbol in draw(
            st.lists(st.sampled_from(SYMBOLS), min_size=0, max_size=3, unique=True)
        )
    }
    return objective, constraints


def _chain_problem(scale=1):
    """A feasible, bounded chain LP; ``scale`` multiplies every row."""
    xs = SYMBOLS[:3]
    constraints = []
    for a, b in zip(xs, xs[1:]):
        constraints.append(LinearConstraint.make({a: scale, b: -scale}))
        constraints.append(LinearConstraint.make({b: scale, a: -scale}, -3 * scale))
    for x in xs:
        constraints.append(LinearConstraint.make({x: 1}, -9))
        constraints.append(LinearConstraint.make({x: -1}, 0))
    objective = {x: Fraction(1) for x in xs}
    return objective, constraints


class TestHugeCoefficients:
    @settings(max_examples=200, deadline=None)
    @given(extreme_lp_problems())
    def test_maximize_matches_oracle(self, problem):
        objective, constraints = problem
        expected_status, expected_value = reference_maximize(objective, constraints)
        result = exact_maximize(objective, constraints)
        assert result.status == expected_status
        if expected_status == "optimal":
            assert result.value == expected_value

    @settings(max_examples=150, deadline=None)
    @given(st.lists(extreme_constraints(), min_size=1, max_size=6))
    def test_satisfiability_matches_oracle(self, constraints):
        status, _ = reference_maximize({}, constraints)
        assert exact_is_satisfiable(constraints) == (status != "infeasible")

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(extreme_constraints(), min_size=1, max_size=5), extreme_constraints()
    )
    def test_entailment_matches_oracle(self, constraints, candidate):
        if candidate.kind is ConstraintKind.EQ:
            le, ge = candidate.inequalities()
            expected = all(
                _reference_entails(constraints, half) for half in (le, ge)
            )
        else:
            expected = _reference_entails(constraints, candidate)
        assert exact_entails(constraints, candidate) == expected

    def test_huge_scaled_chain_is_exact(self):
        objective, constraints = _chain_problem(scale=2**62)
        result = exact_maximize(objective, constraints)
        assert (result.status, result.value) == ("optimal", Fraction(27))
        assert reference_maximize(objective, constraints) == ("optimal", Fraction(27))


def _reference_entails(constraints, candidate):
    status, value = reference_maximize(candidate.coeff_map, constraints)
    if status == "infeasible":
        return True
    if status == "unbounded":
        return False
    return value <= -candidate.constant


class TestKernelSelection:
    def test_bignum_mode_never_touches_numpy(self):
        """Every LP is routed to the one integer tableau: ``kernel_stats``
        keeps its three keys (the per-layer trace reads them) and only
        ``bignum`` counts."""
        reset_kernel_stats()
        objective = {SYMBOLS[0]: Fraction(1)}
        constraints = [LinearConstraint.make({SYMBOLS[0]: 1}, -5)]
        exact_maximize(objective, constraints)
        stats = kernel_stats()
        assert set(stats) == {"int64", "bignum", "fallbacks"}
        assert stats["int64"] == 0
        assert stats["fallbacks"] == 0
        assert stats["bignum"] >= 1
