"""Interned symbols: one object per symbol, hash and sort key fixed once."""

import copy
import gc
import pickle
import sys
import threading
import time
import types
import weakref

import pytest

from repro.formulas import symbols as symbols_module
from repro.formulas.symbols import Symbol, by_name, fresh, primed, sym


class TestInterning:
    def test_equal_symbols_are_one_object(self):
        assert Symbol("x") is sym("x") is Symbol("x", False, 0)
        assert Symbol("x", True) is primed(sym("x"))
        assert Symbol("x") is not Symbol("x", True)
        assert Symbol("x", False, 3) != Symbol("x")

    def test_hash_is_the_field_tuple_hash(self):
        for symbol in (sym("x"), Symbol("x", True), Symbol("t", False, 7)):
            assert hash(symbol) == hash((symbol.name, symbol.is_primed, symbol.index))

    def test_order_and_sort_key(self):
        a, b = sym("a"), Symbol("a", False, 2)
        assert a < b and b > a and a <= a and b >= a
        assert by_name(Symbol("t", True, 4)) == str(Symbol("t", True, 4)) == "t#4'"
        assert sorted([sym("b"), sym("a")], key=by_name) == [sym("a"), sym("b")]

    def test_copy_and_pickle_return_the_interned_symbol(self):
        symbol = fresh("k")
        assert copy.copy(symbol) is symbol
        assert copy.deepcopy(symbol) is symbol
        assert pickle.loads(pickle.dumps(symbol)) is symbol

    def test_immutable(self):
        with pytest.raises(AttributeError):
            sym("x").name = "y"

    def test_invalid_fields_are_rejected(self):
        for fields in ((3,), ("x", "yes"), ("x", False, "1"), ("x", False, True)):
            with pytest.raises(TypeError):
                Symbol(*fields)

    def test_unreferenced_symbols_are_released(self):
        key = ("only_here", False, 123456)
        symbol = Symbol(*key)
        assert key in symbols_module._INTERNED
        del symbol
        gc.collect()
        assert key not in symbols_module._INTERNED

    def test_concurrent_creation_yields_one_object(self, monkeypatch):
        """More threads than cores mint the same new symbols at once; a lost
        check-then-create would hand two threads different objects.  The
        weak reference made while registering a new symbol yields the
        interpreter lock, which widens the window a race needs."""
        threads, names = 8, [f"race_{i}" for i in range(200)]
        results = [[] for _ in range(threads)]
        start = threading.Barrier(threads)

        def yielding_ref(*args):
            time.sleep(0)
            return weakref.KeyedRef(*args)

        monkeypatch.setattr(
            symbols_module, "weakref", types.SimpleNamespace(KeyedRef=yielding_ref)
        )

        def mint(slot):
            start.wait()
            results[slot] = [Symbol(name, False, 99) for name in names]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=mint, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for column in zip(*results):
            assert len({id(symbol) for symbol in column}) == 1
