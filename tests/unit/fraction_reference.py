"""Test-only reference: the exact kernel as it was on ``Fraction`` values.

Two pieces, both kept independent of the production code they check:

* a dense ``Fraction`` simplex tableau (two-phase, Bland's rule), the
  oracle for :mod:`repro.polyhedra.simplex`;
* :class:`FractionConstraint`, the linear constraint with one ``Fraction``
  per coefficient that :class:`~repro.polyhedra.constraint.LinearConstraint`
  replaced with an integer row, plus the Fourier–Motzkin projection, LP
  minimization, satisfiability, entailment and convex hull written against
  it, as they were before the change (without memo tables, which never
  change a result).  LP questions go to the ``Fraction`` tableau.

``test_integer_rows_differential.py`` pins the integer kernel against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from repro.formulas.symbols import Symbol, fresh
from repro.polyhedra.constraint import ConstraintKind, LinearConstraint

# --------------------------------------------------------------------- #
# The oracle: the pre-rewrite dense Fraction tableau (two-phase simplex,
# Bland's rule), trimmed to what the tests need.  Kept verbatim in spirit:
# same standard form, same pivot rules, per-cell Fraction arithmetic.  It
# reads ``coeffs``/``constant``/``kind``/``symbols``, so it takes either
# constraint class.
# --------------------------------------------------------------------- #
class _FractionTableau:
    def __init__(self, rows, rhs, basis):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = len(rows[0]) if rows else 0

    def pivot(self, row, col):
        pivot_value = self.rows[row][col]
        if pivot_value != 1:
            inv = Fraction(1) / pivot_value
            self.rows[row] = [a * inv if a else a for a in self.rows[row]]
            self.rhs[row] *= inv
        pivot_row = self.rows[row]
        for r in range(len(self.rows)):
            if r == row:
                continue
            factor = self.rows[r][col]
            if factor == 0:
                continue
            self.rows[r] = [
                a - factor * p if p else a for a, p in zip(self.rows[r], pivot_row)
            ]
            self.rhs[r] -= factor * self.rhs[row]
        self.basis[row] = col

    def optimize(self, objective, allowed):
        obj_row = list(objective)
        obj_value = Fraction(0)
        for i, basic_col in enumerate(self.basis):
            coeff = obj_row[basic_col]
            if coeff == 0:
                continue
            obj_row = [
                a - coeff * b if b else a for a, b in zip(obj_row, self.rows[i])
            ]
            obj_value -= coeff * self.rhs[i]
        while True:
            entering = None
            for col in range(self.ncols):
                if col in allowed and obj_row[col] > 0:
                    entering = col
                    break
            if entering is None:
                return "optimal", -obj_value
            leaving = None
            best_ratio = None
            for row in range(len(self.rows)):
                a = self.rows[row][entering]
                if a > 0:
                    ratio = self.rhs[row] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[row] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = row
            if leaving is None:
                return "unbounded", Fraction(0)
            coeff = obj_row[entering]
            self.pivot(leaving, entering)
            obj_row = [
                a - coeff * b if b else a
                for a, b in zip(obj_row, self.rows[leaving])
            ]
            obj_value -= coeff * self.rhs[leaving]


def _reference_standard_form(objective, constraints):
    symbols = sorted(
        {s for c in constraints for s in c.symbols} | set(objective.keys()), key=str
    )
    index = {s: i for i, s in enumerate(symbols)}
    n_free = len(symbols)
    n_slack = sum(1 for c in constraints if c.kind is ConstraintKind.LE)
    ncols = 2 * n_free + n_slack
    rows, rhs = [], []
    slack_cursor = 0
    for constraint in constraints:
        row = [Fraction(0)] * ncols
        for s, c in constraint.coeffs:
            j = index[s]
            row[2 * j] += c
            row[2 * j + 1] -= c
        if constraint.kind is ConstraintKind.LE:
            row[2 * n_free + slack_cursor] = Fraction(1)
            slack_cursor += 1
        rows.append(row)
        rhs.append(-constraint.constant)
    obj = [Fraction(0)] * ncols
    for s, c in objective.items():
        j = index[s]
        obj[2 * j] += Fraction(c)
        obj[2 * j + 1] -= Fraction(c)
    return rows, rhs, obj, ncols


def reference_maximize(objective, constraints):
    """The old solver, minus the equality presolve (pure two-phase simplex).

    Skipping the presolve makes the oracle maximally independent of the
    production code path: equalities reach the tableau untouched.
    Returns ``(status, value)``.
    """
    nontrivial = []
    for constraint in constraints:
        if constraint.is_contradiction:
            return "infeasible", None
        if not constraint.is_trivial:
            nontrivial.append(constraint)
    objective = {s: Fraction(c) for s, c in objective.items() if Fraction(c) != 0}
    if not nontrivial:
        if not objective:
            return "optimal", Fraction(0)
        return "unbounded", None
    rows, rhs, obj, ncols = _reference_standard_form(objective, nontrivial)
    nrows = len(rows)
    total_cols = ncols + nrows
    tab_rows, tab_rhs, basis = [], [], []
    for i in range(nrows):
        row = list(rows[i])
        b = rhs[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
        row.extend(Fraction(0) for _ in range(nrows))
        row[ncols + i] = Fraction(1)
        tab_rows.append(row)
        tab_rhs.append(b)
        basis.append(ncols + i)
    tableau = _FractionTableau(tab_rows, tab_rhs, basis)
    phase1 = [Fraction(0)] * total_cols
    for i in range(nrows):
        phase1[ncols + i] = Fraction(-1)
    status, value = tableau.optimize(phase1, allowed=set(range(total_cols)))
    if status != "optimal" or value < 0:
        return "infeasible", None
    for i in range(nrows):
        if tableau.basis[i] >= ncols:
            pivot_col = next(
                (j for j in range(ncols) if tableau.rows[i][j] != 0), None
            )
            if pivot_col is not None:
                tableau.pivot(i, pivot_col)
    phase2 = list(obj) + [Fraction(0)] * nrows
    status, value = tableau.optimize(phase2, allowed=set(range(ncols)))
    if status == "unbounded":
        return "unbounded", None
    return "optimal", value


# --------------------------------------------------------------------- #
# The Fraction constraint.
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FractionConstraint:
    """``sum coeffs[s]*s + constant (<=|==) 0`` with one Fraction per entry."""

    coeffs: tuple[tuple[Symbol, Fraction], ...]
    constant: Fraction
    kind: ConstraintKind

    @staticmethod
    def make(coeffs, constant=0, kind=ConstraintKind.LE) -> "FractionConstraint":
        cleaned = tuple(
            sorted(
                ((s, Fraction(c)) for s, c in coeffs.items() if Fraction(c) != 0),
                key=lambda kv: str(kv[0]),
            )
        )
        return FractionConstraint(cleaned, Fraction(constant), kind)

    @staticmethod
    def of(constraint: LinearConstraint) -> "FractionConstraint":
        return FractionConstraint.make(
            constraint.coeff_map, constraint.constant, constraint.kind
        )

    def to_row(self) -> LinearConstraint:
        return LinearConstraint.make(dict(self.coeffs), self.constant, self.kind)

    @property
    def coeff_map(self) -> dict[Symbol, Fraction]:
        return dict(self.coeffs)

    @property
    def symbols(self) -> frozenset[Symbol]:
        return frozenset(s for s, _ in self.coeffs)

    @property
    def is_trivial(self) -> bool:
        if self.coeffs:
            return False
        if self.kind is ConstraintKind.LE:
            return self.constant <= 0
        return self.constant == 0

    @property
    def is_contradiction(self) -> bool:
        if self.coeffs:
            return False
        if self.kind is ConstraintKind.LE:
            return self.constant > 0
        return self.constant != 0

    def coefficient(self, symbol: Symbol) -> Fraction:
        return dict(self.coeffs).get(symbol, Fraction(0))

    def scale(self, factor) -> "FractionConstraint":
        factor = Fraction(factor)
        return FractionConstraint.make(
            {s: c * factor for s, c in self.coeffs}, self.constant * factor, self.kind
        )

    def add(self, other: "FractionConstraint") -> "FractionConstraint":
        coeffs = self.coeff_map
        for s, c in other.coeffs:
            coeffs[s] = coeffs.get(s, Fraction(0)) + c
        kind = (
            ConstraintKind.EQ
            if self.kind is ConstraintKind.EQ and other.kind is ConstraintKind.EQ
            else ConstraintKind.LE
        )
        return FractionConstraint.make(coeffs, self.constant + other.constant, kind)

    def normalize(self) -> "FractionConstraint":
        if not self.coeffs:
            return self
        lead = abs(self.coeffs[0][1])
        if lead == 0 or lead == 1:
            return self
        return self.scale(Fraction(1) / lead)

    def halves(self) -> tuple["FractionConstraint", "FractionConstraint"]:
        return (
            FractionConstraint.make(self.coeff_map, self.constant),
            FractionConstraint.make({s: -c for s, c in self.coeffs}, -self.constant),
        )


def contradiction() -> FractionConstraint:
    return FractionConstraint.make({}, 1)


# --------------------------------------------------------------------- #
# LP questions, answered by the Fraction tableau.
# --------------------------------------------------------------------- #
def interval_contradiction(constraints: Sequence[FractionConstraint]) -> bool:
    lower: dict[Symbol, Fraction] = {}
    upper: dict[Symbol, Fraction] = {}
    for constraint in constraints:
        if len(constraint.coeffs) != 1:
            continue
        symbol, coeff = constraint.coeffs[0]
        bound = -constraint.constant / coeff
        if constraint.kind is ConstraintKind.EQ:
            is_upper = is_lower = True
        else:
            is_upper = coeff > 0
            is_lower = not is_upper
        if is_upper and (symbol not in upper or bound < upper[symbol]):
            upper[symbol] = bound
        if is_lower and (symbol not in lower or bound > lower[symbol]):
            lower[symbol] = bound
    return any(
        symbol in upper and low > upper[symbol] for symbol, low in lower.items()
    )


def is_satisfiable(constraints: Sequence[FractionConstraint]) -> bool:
    status, _ = reference_maximize({}, constraints)
    return status != "infeasible"


def entails(constraints: Sequence[FractionConstraint], candidate: FractionConstraint) -> bool:
    if candidate.is_trivial:
        return True
    if not is_satisfiable(constraints):
        return True
    if candidate.kind is ConstraintKind.EQ:
        return all(entails(constraints, half) for half in candidate.halves())
    status, value = reference_maximize(candidate.coeff_map, constraints)
    if status == "infeasible":
        return True
    if status == "unbounded":
        return False
    return value <= -candidate.constant


def is_empty(constraints: Sequence[FractionConstraint]) -> bool:
    """``Polyhedron.is_empty`` on the (trivial-free) constraints."""
    if any(c.is_contradiction for c in constraints):
        return True
    if not constraints:
        return False
    return not is_satisfiable(constraints)


# --------------------------------------------------------------------- #
# Fourier–Motzkin with Imbert histories, and LP minimization.
# --------------------------------------------------------------------- #
MINIMIZE_THRESHOLD = 120
BLOWUP_LIMIT = 600


class _Tracked:
    __slots__ = ("constraint", "history", "eliminated")

    def __init__(self, constraint, history, eliminated):
        self.constraint = constraint
        self.history = history
        self.eliminated = eliminated

    def replaced(self, constraint):
        return _Tracked(constraint, self.history, self.eliminated)


def _imbert_redundant(history: int, eliminated: int) -> bool:
    return history.bit_count() > 1 + eliminated.bit_count()


def eliminate(
    constraints: Sequence[FractionConstraint],
    symbols: Iterable[Symbol],
    minimize_threshold: int = MINIMIZE_THRESHOLD,
) -> list[FractionConstraint]:
    current = clean(list(constraints))
    if current is None:
        return [contradiction()]
    targets = [
        s for s in dict.fromkeys(symbols) if any(c.coefficient(s) != 0 for c in current)
    ]
    if not targets:
        return current
    tracked = [_Tracked(c, 1 << i, 0) for i, c in enumerate(current)]
    symbol_bits = {s: 1 << i for i, s in enumerate(targets)}
    remaining = list(targets)
    while remaining:
        symbol = _pick_symbol([t.constraint for t in tracked], remaining)
        remaining.remove(symbol)
        if not any(t.constraint.coefficient(symbol) != 0 for t in tracked):
            continue
        equality = next(
            (
                t
                for t in tracked
                if t.constraint.kind is ConstraintKind.EQ
                and t.constraint.coefficient(symbol) != 0
            ),
            None,
        )
        if equality is not None:
            tracked = _substitute(tracked, symbol, symbol_bits[symbol], equality)
        else:
            tracked = _combine(tracked, symbol, symbol_bits[symbol])
        tracked = _clean_tracked(tracked)
        if tracked is None:
            return [contradiction()]
        if len(tracked) > minimize_threshold:
            tracked = _minimize_tracked(tracked)
    return [t.constraint for t in tracked]


def _pick_symbol(constraints, candidates):
    best = best_cost = None
    for symbol in candidates:
        pos = neg = 0
        has_eq = False
        for constraint in constraints:
            coeff = constraint.coefficient(symbol)
            if coeff == 0:
                continue
            if constraint.kind is ConstraintKind.EQ:
                has_eq = True
                break
            if coeff > 0:
                pos += 1
            else:
                neg += 1
        cost = -1 if has_eq else pos * neg
        if best_cost is None or cost < best_cost:
            best, best_cost = symbol, cost
            if cost == -1:
                break
    return best


def _substitute(tracked, symbol, symbol_bit, equality):
    eq_constraint = equality.constraint
    coeff = eq_constraint.coefficient(symbol)
    result = []
    for t in tracked:
        if t is equality:
            continue
        constraint = t.constraint
        c = constraint.coefficient(symbol)
        if c == 0:
            result.append(t)
            continue
        history = t.history | equality.history
        eliminated = t.eliminated | equality.eliminated | symbol_bit
        if constraint.kind is ConstraintKind.LE and _imbert_redundant(history, eliminated):
            continue
        factor = c / coeff
        coeffs = constraint.coeff_map
        for s, e in eq_constraint.coeffs:
            coeffs[s] = coeffs.get(s, Fraction(0)) - factor * e
        constant = constraint.constant - factor * eq_constraint.constant
        result.append(
            _Tracked(
                FractionConstraint.make(coeffs, constant, constraint.kind),
                history,
                eliminated,
            )
        )
    return result


def _combine(tracked, symbol, symbol_bit):
    positives, negatives, untouched = [], [], []
    for t in tracked:
        coeff = t.constraint.coefficient(symbol)
        if coeff == 0:
            untouched.append(t)
        elif coeff > 0:
            positives.append(t)
        else:
            negatives.append(t)
    if len(positives) * len(negatives) + len(untouched) > BLOWUP_LIMIT:
        return untouched
    result = untouched
    for pos in positives:
        cp = pos.constraint.coefficient(symbol)
        for neg in negatives:
            history = pos.history | neg.history
            eliminated = pos.eliminated | neg.eliminated | symbol_bit
            if _imbert_redundant(history, eliminated):
                continue
            cn = neg.constraint.coefficient(symbol)
            combined = pos.constraint.scale(-cn).add(neg.constraint.scale(cp))
            coeffs = {s: c for s, c in combined.coeffs if s != symbol}
            result.append(
                _Tracked(
                    FractionConstraint.make(coeffs, combined.constant, ConstraintKind.LE),
                    history,
                    eliminated,
                )
            )
    return result


def clean(constraints):
    seen = {}
    for constraint in constraints:
        if constraint.is_contradiction:
            return None
        if constraint.is_trivial:
            continue
        normalized = constraint.normalize()
        key = (normalized.coeffs, normalized.kind)
        existing = seen.get(key)
        if existing is None:
            seen[key] = normalized
        elif normalized.kind is ConstraintKind.LE:
            if normalized.constant > existing.constant:
                seen[key] = normalized
        elif normalized.constant != existing.constant:
            return None
    result = list(seen.values())
    if interval_contradiction(result):
        return None
    return result


def _clean_tracked(tracked):
    seen = {}
    for t in tracked:
        constraint = t.constraint
        if constraint.is_contradiction:
            return None
        if constraint.is_trivial:
            continue
        normalized = constraint.normalize()
        key = (normalized.coeffs, normalized.kind)
        existing = seen.get(key)
        if existing is None:
            seen[key] = t.replaced(normalized)
        elif normalized.kind is ConstraintKind.LE:
            if normalized.constant > existing.constraint.constant:
                seen[key] = t.replaced(normalized)
            elif (
                normalized.constant == existing.constraint.constant
                and t.history.bit_count() < existing.history.bit_count()
            ):
                seen[key] = t.replaced(normalized)
        else:
            if normalized.constant != existing.constraint.constant:
                return None
            if t.history.bit_count() < existing.history.bit_count():
                seen[key] = t.replaced(normalized)
    result = list(seen.values())
    if interval_contradiction([t.constraint for t in result]):
        return None
    return result


def _minimize_tracked(tracked):
    best = {}
    for t in tracked:
        existing = best.get(t.constraint)
        if existing is None or t.history.bit_count() < existing.history.bit_count():
            best[t.constraint] = t
    minimized = minimize_constraints([t.constraint for t in tracked])
    return [best.get(c) or _Tracked(c, 0, 0) for c in minimized]


def minimize_constraints(constraints):
    kept = clean(constraints)
    if kept is None:
        return [contradiction()]
    index = 0
    while index < len(kept):
        rest = kept[:index] + kept[index + 1 :]
        if rest and entails(rest, kept[index]):
            kept = rest
        else:
            index += 1
    return kept


# --------------------------------------------------------------------- #
# The join.
# --------------------------------------------------------------------- #
EXACT_HULL_MAX_DIMENSION = 14
EXACT_HULL_MAX_CONSTRAINTS = 48


def _symbols(constraints):
    return frozenset(s for c in constraints for s in c.symbols)


def weak_join(first, second):
    if is_empty(first):
        return second
    if is_empty(second):
        return first
    forms_first = frozenset(c.normalize() for c in first)
    forms_second = frozenset(c.normalize() for c in second)

    def entailed_by(constraints, forms, candidate):
        return candidate.normalize() in forms or entails(constraints, candidate)

    kept = []
    for mine, other, forms in ((first, second, forms_second), (second, first, forms_first)):
        for constraint in mine:
            halves = (
                constraint.halves() if constraint.kind is ConstraintKind.EQ else (constraint,)
            )
            kept.extend(h for h in halves if entailed_by(other, forms, h))
    return minimize_constraints([c for c in kept if not c.is_trivial])


def convex_hull_pair(first, second):
    """The hull of two trivial-free constraint lists, as a constraint list."""
    if is_empty(first):
        return second
    if is_empty(second):
        return first
    if not first or not second:
        return []
    symbols = sorted(_symbols(first) | _symbols(second), key=str)
    if (
        len(symbols) > EXACT_HULL_MAX_DIMENSION
        or len(first) > EXACT_HULL_MAX_CONSTRAINTS
        or len(second) > EXACT_HULL_MAX_CONSTRAINTS
    ):
        return weak_join(first, second)
    sigma = fresh("hull_sigma")
    shadow = {s: fresh(f"hull_{s.name}") for s in symbols}
    lifted = []
    for constraint in first:
        coeffs = {}
        for s, c in constraint.coeffs:
            coeffs[shadow[s]] = coeffs.get(shadow[s], Fraction(0)) + c
        coeffs[sigma] = coeffs.get(sigma, Fraction(0)) + constraint.constant
        lifted.append(FractionConstraint.make(coeffs, 0, constraint.kind))
    for constraint in second:
        coeffs = {}
        for s, c in constraint.coeffs:
            coeffs[s] = coeffs.get(s, Fraction(0)) + c
            coeffs[shadow[s]] = coeffs.get(shadow[s], Fraction(0)) - c
        coeffs[sigma] = coeffs.get(sigma, Fraction(0)) - constraint.constant
        lifted.append(FractionConstraint.make(coeffs, constraint.constant, constraint.kind))
    lifted.append(FractionConstraint.make({sigma: -1}, 0))
    lifted.append(FractionConstraint.make({sigma: 1}, -1))
    eliminated = [
        c for c in eliminate(lifted, [sigma, *shadow.values()]) if not c.is_trivial
    ]
    hull = [c for c in minimize_constraints(eliminated) if not c.is_trivial]
    if is_empty(hull):
        return weak_join(first, second)
    return hull
