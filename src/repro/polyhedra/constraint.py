"""Linear constraints over symbols.

A :class:`LinearConstraint` denotes ``sum_i coeff_i * symbol_i + constant REL 0``
where ``REL`` is ``<=`` or ``==``.  Strict inequalities are soundly weakened to
non-strict ones when converting from formula atoms (the polyhedral domain of
the paper is a closed-convex-set domain, so this loses no precision for the
over-approximation direction the analysis needs).

The coefficients are exact rationals stored as one **integer row** over a
single positive common denominator: ``coeff_i = row[i] / den`` and
``constant = const / den``, with ``gcd(row, const, den) == 1``.  That form is
unique for each rational constraint, so equality and hashing stay those of
the rational constraint, while the kernel (projection, simplex, memo keys)
works on plain integers.  ``Fraction`` values appear only at the boundary to
polynomials and formulas (:attr:`coeffs`, :attr:`constant`,
:meth:`to_polynomial`).
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Mapping

from ..formulas.formula import Atom, AtomKind
from ..formulas.polynomial import Monomial, Polynomial
from ..formulas.symbols import Symbol

__all__ = [
    "ConstraintKind",
    "LinearConstraint",
    "constraint_from_atom",
    "fourier_combination",
    "substitute",
]

_ZERO = Fraction(0)


class ConstraintKind(enum.Enum):
    """Relation of a linear constraint to zero."""

    LE = "<="
    EQ = "=="


_LE = ConstraintKind.LE
_EQ = ConstraintKind.EQ


def _by_symbol(pair: tuple) -> str:
    return pair[0].sort_key


class LinearConstraint:
    """``sum coeffs[s]*s + constant (<=|==) 0`` with exact rational arithmetic.

    ``syms`` are the symbols with a non-zero coefficient, in string order;
    ``row`` their integer numerators; ``const`` the numerator of the
    constant and ``den`` the positive common denominator.  Instances are
    immutable; the hash (the same value as the hash of
    ``(coeffs, constant, kind)``), the coefficient lookup table and the
    subsumption key are computed once, when first asked for.
    """

    __slots__ = ("syms", "row", "const", "den", "kind", "_hash", "_table", "_direction")

    def __init__(
        self,
        syms: tuple[Symbol, ...],
        row: tuple[int, ...],
        const: int,
        den: int,
        kind: ConstraintKind,
    ):
        # The validating constructor (also what unpickling calls): the hot
        # paths build instances through ``from_row`` from parts already
        # known to be in lowest terms.
        syms, row = tuple(syms), tuple(row)
        if (
            len(syms) != len(row)
            or not all(s.__class__ is Symbol for s in syms)
            or not all(isinstance(v, int) and v for v in row)
            or not isinstance(const, int)
            or not isinstance(den, int)
            or den <= 0
            or not isinstance(kind, ConstraintKind)
        ):
            raise ValueError("malformed linear constraint")
        if [s.sort_key for s in syms] != sorted(s.sort_key for s in syms):
            raise ValueError("linear constraint symbols must be in string order")
        g = math.gcd(den, const, *row)
        if g != 1:
            row = tuple(v // g for v in row)
            const //= g
            den //= g
        self.syms = syms
        self.row = row
        self.const = const
        self.den = den
        self.kind = kind

    @staticmethod
    def from_row(
        syms: tuple[Symbol, ...],
        row: tuple[int, ...],
        const: int,
        den: int,
        kind: ConstraintKind,
    ) -> "LinearConstraint":
        """Build from parts already sorted, non-zero and in lowest terms.

        No check is made: callers pass symbols in string order, non-zero
        numerators, ``den > 0`` and ``gcd(row, const, den) == 1``.
        """
        self = _new(LinearConstraint)
        self.syms = syms
        self.row = row
        self.const = const
        self.den = den
        self.kind = kind
        return self

    @staticmethod
    def from_numerators(
        pairs: list[tuple[Symbol, int]], const: int, den: int, kind: ConstraintKind
    ) -> "LinearConstraint":
        """``sum v*s + const (REL) 0`` over ``den > 0``, from ``(s, v)`` pairs.

        The pairs need not be sorted but name each symbol once.  Zero
        numerators are dropped, the rest sorted by symbol string (stable, as
        :meth:`make` sorts) and everything divided by the common gcd.
        """
        pairs = [p for p in pairs if p[1]]
        pairs.sort(key=_by_symbol)
        row = tuple(v for _, v in pairs)
        g = math.gcd(den, const, *row)
        if g != 1:
            row = tuple(v // g for v in row)
            const //= g
            den //= g
        return LinearConstraint.from_row(tuple(s for s, _ in pairs), row, const, den, kind)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def make(
        coeffs: Mapping[Symbol, Fraction | int],
        constant: Fraction | int = 0,
        kind: ConstraintKind = ConstraintKind.LE,
    ) -> "LinearConstraint":
        pairs = []
        den = 1
        for s, c in coeffs.items():
            if c.__class__ is not int:
                c = c if c.__class__ is Fraction else Fraction(c)
                den = math.lcm(den, c.denominator)
            if c:
                pairs.append((s, c))
        if constant.__class__ is not int:
            constant = constant if constant.__class__ is Fraction else Fraction(constant)
            den = math.lcm(den, constant.denominator)
        pairs.sort(key=_by_symbol)
        if den == 1:
            row = tuple(int(c) for _, c in pairs)
            const = int(constant)
        else:
            # With den the lcm of the reduced denominators the row is
            # already in lowest terms.
            row = tuple(c.numerator * (den // c.denominator) for _, c in pairs)
            const = constant.numerator * (den // constant.denominator)
        return LinearConstraint.from_row(tuple(s for s, _ in pairs), row, const, den, kind)

    @staticmethod
    def le(polynomial: Polynomial) -> "LinearConstraint":
        """``polynomial <= 0`` (polynomial must be linear)."""
        return _from_linear_polynomial(polynomial, ConstraintKind.LE)

    @staticmethod
    def eq(polynomial: Polynomial) -> "LinearConstraint":
        """``polynomial == 0`` (polynomial must be linear)."""
        return _from_linear_polynomial(polynomial, ConstraintKind.EQ)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def coeffs(self) -> tuple[tuple[Symbol, Fraction], ...]:
        """``(symbol, coefficient)`` pairs as rationals, in string order."""
        den = self.den
        return tuple((s, Fraction(v, den)) for s, v in zip(self.syms, self.row))

    @property
    def constant(self) -> Fraction:
        return Fraction(self.const, self.den)

    @property
    def coeff_map(self) -> dict[Symbol, Fraction]:
        return dict(self.coeffs)

    @property
    def symbols(self) -> frozenset[Symbol]:
        return frozenset(self.syms)

    @property
    def is_trivial(self) -> bool:
        """True when the constraint has no symbols and is satisfied."""
        if self.syms:
            return False
        if self.kind is _LE:
            return self.const <= 0
        return self.const == 0

    @property
    def is_contradiction(self) -> bool:
        """True when the constraint has no symbols and is violated."""
        if self.syms:
            return False
        if self.kind is _LE:
            return self.const > 0
        return self.const != 0

    def numerator(self, symbol: Symbol) -> int:
        """The integer numerator of ``symbol``'s coefficient (0 if absent).

        Its sign is the coefficient's sign, which is all the projection and
        simplex layers ask of it per symbol per constraint.
        """
        try:
            table = self._table
        except AttributeError:
            table = self._table = dict(zip(self.syms, self.row))
        return table.get(symbol, 0)

    def coefficient(self, symbol: Symbol) -> Fraction:
        value = self.numerator(symbol)
        return Fraction(value, self.den) if value else _ZERO

    def direction(self) -> tuple:
        """Subsumption key: the symbols, the row scaled to gcd 1, ``kind is EQ``.

        Two constraints share it exactly when their left-hand sides are
        positive multiples of each other (and the relation is the same).
        """
        try:
            return self._direction
        except AttributeError:
            pass
        row = self.row
        g = math.gcd(*row)
        if g != 1:
            row = tuple(v // g for v in row)
        key = self._direction = (self.syms, row, self.kind is _EQ)
        return key

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def scale(self, factor: Fraction | int) -> "LinearConstraint":
        """Scale by a factor (must be positive for LE constraints)."""
        factor = Fraction(factor)
        if self.kind is _LE and factor <= 0:
            raise ValueError("LE constraints may only be scaled by positive factors")
        p, q = factor.numerator, factor.denominator
        return LinearConstraint.from_numerators(
            [(s, v * p) for s, v in zip(self.syms, self.row)],
            self.const * p,
            self.den * q,
            self.kind,
        )

    def add(self, other: "LinearConstraint") -> "LinearConstraint":
        """Sum of two constraints (LE + LE = LE, EQ + EQ = EQ, mixed = LE)."""
        kind = _EQ if self.kind is _EQ and other.kind is _EQ else _LE
        return _combine(self, other.den, other, self.den, kind, self.den * other.den)

    def normalize(self) -> "LinearConstraint":
        """Divide through by the leading coefficient's magnitude (to 1/-1)."""
        if not self.syms:
            return self
        lead = abs(self.row[0])
        if lead == self.den:
            return self
        # coeff / |lead| = row[i] / |row[0]|: the common denominator cancels.
        row = self.row
        g = math.gcd(self.const, *row)
        if g != 1:
            row = tuple(v // g for v in row)
        return LinearConstraint.from_row(self.syms, row, self.const // g, lead // g, self.kind)

    def inequalities(self) -> tuple["LinearConstraint", "LinearConstraint"]:
        """The halves ``lhs <= 0`` and ``-lhs <= 0`` of this constraint."""
        return (
            LinearConstraint.from_row(self.syms, self.row, self.const, self.den, _LE),
            LinearConstraint.from_row(
                self.syms, tuple(-v for v in self.row), -self.const, self.den, _LE
            ),
        )

    def to_polynomial(self) -> Polynomial:
        """The linear polynomial ``sum coeffs*sym + constant``."""
        den = self.den
        terms: dict[Monomial, Fraction] = {}
        if self.const:
            terms[Monomial.unit()] = Fraction(self.const, den)
        for s, v in zip(self.syms, self.row):
            terms[Monomial.of(s)] = Fraction(v, den)
        return Polynomial(terms)

    def to_atom(self) -> Atom:
        """The corresponding formula atom."""
        kind = AtomKind.LE if self.kind is _LE else AtomKind.EQ
        return Atom(self.to_polynomial(), kind)

    def rename(self, mapping: Mapping[Symbol, Symbol]) -> "LinearConstraint":
        merged: dict[Symbol, int] = {}
        for s, v in zip(self.syms, self.row):
            target = mapping.get(s, s)
            merged[target] = merged[target] + v if target in merged else v
        return LinearConstraint.from_numerators(
            list(merged.items()), self.const, self.den, self.kind
        )

    def evaluate(self, assignment: Mapping[Symbol, Fraction | int]) -> bool:
        value = Fraction(self.const)
        for s, v in zip(self.syms, self.row):
            value += v * Fraction(assignment[s])
        # den > 0, so the sign of the sum is the sign of the constraint.
        if self.kind is _LE:
            return value <= 0
        return value == 0

    # ------------------------------------------------------------------ #
    # Value semantics
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not LinearConstraint:
            return NotImplemented
        return (
            self.row == other.row
            and self.syms == other.syms
            and self.const == other.const
            and self.den == other.den
            and self.kind is other.kind
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        # The hash of (coeffs, constant, kind) with Fraction values: an
        # integral Fraction hashes like its int, and an enum member like
        # its name.
        den = self.den
        if den == 1:
            pairs = tuple(zip(self.syms, self.row))
            constant = self.const
        else:
            pairs = tuple((s, Fraction(v, den)) for s, v in zip(self.syms, self.row))
            constant = Fraction(self.const, den)
        value = self._hash = hash((pairs, constant, self.kind._name_))
        return value

    def __reduce__(self):
        return (LinearConstraint, (self.syms, self.row, self.const, self.den, self.kind))

    def __str__(self) -> str:
        lhs = " + ".join(f"{c}*{s}" for s, c in self.coeffs) or "0"
        return f"{lhs} + {self.constant} {self.kind.value} 0"

    def __repr__(self) -> str:
        return (
            f"LinearConstraint(coeffs={self.coeffs!r}, constant={self.constant!r}, "
            f"kind={self.kind!r})"
        )


_new = object.__new__


def _combine(
    first: LinearConstraint,
    first_factor: int,
    second: LinearConstraint,
    second_factor: int,
    kind: ConstraintKind,
    den: int,
) -> LinearConstraint:
    """``(first_factor*first + second_factor*second)`` over ``den > 0``.

    The factors multiply the integer rows and constants; callers pick them
    and ``den`` so the result is the exact rational combination they mean
    (zero entries are dropped and the result reduced to lowest terms).
    """
    merged: dict[Symbol, int] = {}
    for s, v in zip(first.syms, first.row):
        merged[s] = first_factor * v
    for s, v in zip(second.syms, second.row):
        w = second_factor * v
        merged[s] = merged[s] + w if s in merged else w
    return LinearConstraint.from_numerators(
        list(merged.items()),
        first_factor * first.const + second_factor * second.const,
        den,
        kind,
    )


def substitute(
    target: LinearConstraint, equality: LinearConstraint, t_k: int, e_k: int
) -> LinearConstraint:
    """``target - (c / e) * equality``, which cancels the shared symbol.

    ``t_k`` and ``e_k`` are the symbol's numerators in ``target`` and
    ``equality``, standing for the coefficients ``c`` and ``e``.  In integers
    that is ``|e_k|*target_row - sign(e_k)*t_k*equality_row`` over
    ``target.den * |e_k|``: the equality's denominator cancels.
    """
    if e_k < 0:
        return _combine(target, -e_k, equality, t_k, target.kind, -target.den * e_k)
    return _combine(target, e_k, equality, -t_k, target.kind, target.den * e_k)


def fourier_combination(
    positive: LinearConstraint, p_k: int, negative: LinearConstraint, n_k: int
) -> LinearConstraint:
    """The LE row in which a symbol with numerators ``p_k > 0`` (in
    ``positive``) and ``n_k < 0`` (in ``negative``) cancels:
    ``-n_k*positive_row + p_k*negative_row`` over the two denominators'
    product, the exact sum of positive multiples of both rows."""
    return _combine(positive, -n_k, negative, p_k, _LE, positive.den * negative.den)


def _from_linear_polynomial(
    polynomial: Polynomial, kind: ConstraintKind
) -> LinearConstraint:
    if not polynomial.is_linear:
        raise ValueError(f"polynomial {polynomial} is not linear")
    linear, constant, _ = polynomial.split_linear()
    return LinearConstraint.make(linear, constant, kind)


def constraint_from_atom(atom: Atom) -> LinearConstraint:
    """Convert a *linear* atom to a constraint, weakening ``<`` to ``<=``."""
    if atom.kind is AtomKind.EQ:
        return LinearConstraint.eq(atom.polynomial)
    return LinearConstraint.le(atom.polynomial)
