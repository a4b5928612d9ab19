"""Symbols: the vocabulary over which terms and transition formulas are built.

The paper works with *transition formulas* over a set ``Var`` of program
variables and a primed copy ``Var'`` (§3, "Relational semantics").  In this
implementation a :class:`Symbol` is an immutable, interned name that may be

* an **unprimed** program variable (pre-state value),
* a **primed** program variable (post-state value), or
* a **fresh** auxiliary symbol (Skolem constants introduced when composing
  transition formulas, loop counters ``K``, the recursion-height symbol ``h``,
  the bounding-function symbols ``b_k(h)`` / ``b_k(h+1)`` of Alg. 2, the
  depth counter ``D`` of Alg. 4, ...).

Fresh symbols carry a numeric index so that repeated composition never
captures variables.  The module-level counter can be reset in tests for
reproducible symbol names.
"""

from __future__ import annotations

import functools
import operator
import os
import threading
import weakref
from contextlib import contextmanager
from typing import Iterable, Iterator

__all__ = [
    "Symbol",
    "by_name",
    "sym",
    "pre",
    "post",
    "primed",
    "unprimed",
    "fresh",
    "fresh_counter",
    "advance_fresh_counter",
    "preserved_fresh_counter",
    "reset_fresh_counter",
    "RETURN_VARIABLE",
]

#: Name of the distinguished variable holding a procedure's return value.
#: ``return'`` (its primed copy) is the post-state return value used in
#: candidate terms such as ``return' <= 0`` (§2, Ex. 2.1).
RETURN_VARIABLE = "return"


@functools.total_ordering
class Symbol:
    """An immutable, interned symbol.

    Attributes
    ----------
    name:
        The base name (a program variable name or an auxiliary name).
    is_primed:
        True for the post-state copy of a program variable.
    index:
        0 for named program symbols; a positive integer for fresh symbols.

    Equal symbols are one object: the constructor returns the live instance
    for ``(name, is_primed, index)`` when there is one, so equality is
    identity.  The hash (the same value as ``hash((name, is_primed,
    index))``, which fixes set and dict iteration order) and the rendering
    ``sort_key`` (what ``str`` returns; symbols sort by it throughout) are
    computed once per instance.  Pickling goes through the constructor, so
    a loaded symbol is re-interned and re-hashed under the loading
    process's string-hash seed.
    """

    __slots__ = ("name", "is_primed", "index", "sort_key", "_key", "_hash", "__weakref__")

    def __new__(cls, name: str, is_primed: bool = False, index: int = 0) -> "Symbol":
        key = (name, is_primed, index)
        ref = _INTERNED.get(key)
        if ref is not None:
            live = ref()
            if live is not None:
                return live
        if not isinstance(name, str) or not isinstance(index, int) or isinstance(index, bool):
            raise TypeError(f"invalid symbol fields {key!r}")
        if is_primed not in (False, True):
            raise TypeError(f"invalid symbol fields {key!r}")
        key = (str(name), bool(is_primed), int(index))
        # Check-then-create under the lock: two threads minting the same
        # symbol must get one object, or equality (identity) would break.
        with _INTERN_LOCK:
            ref = _INTERNED.get(key)
            live = ref() if ref is not None else None
            if live is None:
                live = object.__new__(cls)
                name, is_primed, index = key
                set_field = object.__setattr__
                set_field(live, "name", name)
                set_field(live, "is_primed", is_primed)
                set_field(live, "index", index)
                suffix = "'" if is_primed else ""
                rendered = f"{name}#{index}{suffix}" if index else f"{name}{suffix}"
                set_field(live, "sort_key", rendered)
                set_field(live, "_key", key)
                set_field(live, "_hash", hash(key))
                _INTERNED[key] = weakref.KeyedRef(live, _forget, key)
        return live

    def __setattr__(self, attribute: str, value: object) -> None:
        raise AttributeError(f"Symbol is immutable (cannot set {attribute!r})")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Symbol") -> bool:
        if other.__class__ is not Symbol:
            return NotImplemented
        return self._key < other._key

    def __reduce__(self):
        return (Symbol, self._key)

    def __str__(self) -> str:
        return self.sort_key

    def __repr__(self) -> str:
        return f"Symbol({self.sort_key})"

    @property
    def is_fresh(self) -> bool:
        """Whether this symbol was generated by :func:`fresh`."""
        return self.index != 0


#: ``(name, is_primed, index)`` -> weak reference to the live symbol.
_INTERNED: dict[tuple, weakref.KeyedRef] = {}

#: Guards every change to ``_INTERNED``.  Re-entrant because the weak
#: reference callback can run from a garbage collection triggered while
#: the same thread holds it.
_INTERN_LOCK = threading.RLock()


def _forget(ref: weakref.KeyedRef) -> None:
    with _INTERN_LOCK:
        if _INTERNED.get(ref.key) is ref:
            del _INTERNED[ref.key]


def _reset_lock_after_fork() -> None:
    # A thread of the parent may have held the lock at the fork; the child
    # has only the forking thread, so it starts with a fresh lock.
    global _INTERN_LOCK
    _INTERN_LOCK = threading.RLock()


os.register_at_fork(after_in_child=_reset_lock_after_fork)


#: Sort key for symbols: their rendering, as ``key=str`` would give.
by_name = operator.attrgetter("sort_key")


def sym(name: str) -> Symbol:
    """Return the unprimed symbol for a program variable name."""
    return Symbol(name, False, 0)


def pre(name: str) -> Symbol:
    """Alias of :func:`sym`: the pre-state symbol of a program variable."""
    return Symbol(name, False, 0)


def post(name: str) -> Symbol:
    """Return the primed (post-state) symbol of a program variable name."""
    return Symbol(name, True, 0)


def primed(symbol: Symbol) -> Symbol:
    """Return the primed copy of ``symbol`` (which must be unprimed)."""
    if symbol.is_primed:
        raise ValueError(f"symbol {symbol} is already primed")
    return Symbol(symbol.name, True, symbol.index)


def unprimed(symbol: Symbol) -> Symbol:
    """Return the unprimed copy of ``symbol`` (which must be primed)."""
    if not symbol.is_primed:
        raise ValueError(f"symbol {symbol} is not primed")
    return Symbol(symbol.name, False, symbol.index)


_FRESH_COUNTER = 0


def fresh(name: str = "t") -> Symbol:
    """Return a fresh symbol that is distinct from every other symbol.

    Fresh symbols are used as Skolem constants when transition formulas are
    composed, as loop counters, and as the ``b_k(h)`` unknowns of hypothetical
    summaries.
    """
    global _FRESH_COUNTER
    _FRESH_COUNTER += 1
    return Symbol(name, False, _FRESH_COUNTER)


def reset_fresh_counter() -> None:
    """Reset the fresh-symbol counter (for reproducible tests only)."""
    global _FRESH_COUNTER
    _FRESH_COUNTER = 0


def fresh_counter() -> int:
    """The current value of the fresh-symbol counter."""
    return _FRESH_COUNTER


def advance_fresh_counter(minimum: int) -> None:
    """Ensure future :func:`fresh` symbols have indices above ``minimum``.

    Needed when structures containing fresh symbols are deserialized from
    another process (the persisted incremental summary store): this process
    must never mint a symbol that collides with one the loaded structures
    already use, or two distinct auxiliaries would be conflated.
    """
    global _FRESH_COUNTER
    _FRESH_COUNTER = max(_FRESH_COUNTER, int(minimum))


@contextmanager
def preserved_fresh_counter() -> Iterator[None]:
    """Restore the fresh-symbol counter on exit.

    For front-end-only work (the lint passes translate expressions to
    formulas purely to ask satisfiability questions and then discard
    them): without this, running lint before an analysis would shift the
    indices of every fresh symbol the analysis mints, and rendered
    summaries would differ from an analysis run without lint.
    """
    global _FRESH_COUNTER
    saved = _FRESH_COUNTER
    try:
        yield
    finally:
        _FRESH_COUNTER = saved


def pre_post_pairs(names: Iterable[str]) -> list[tuple[Symbol, Symbol]]:
    """Return ``[(x, x'), ...]`` pairs for each program variable name."""
    return [(pre(name), post(name)) for name in names]
