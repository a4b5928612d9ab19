"""The per-layer tracer of the repository benchmark binds to live names.

``perfbench/tracing.py`` wraps program functions and methods by module and
attribute name, so renaming or deleting one of them would only surface as
a crash of ``perfbench/run.py --trace 1``.  This test loads the tracer by
path, without installing it, and checks every name it binds.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_contract", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_method_resolves():
    tracing = _load_tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for span, (module, attribute) in tracing.FUNCTIONS.items():
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{span}: {module}.{attribute} does not resolve"
    for span, (module, owner, attribute) in tracing.METHODS.items():
        cls = getattr(importlib.import_module(module), owner, None)
        assert cls is not None, f"{span}: {module}.{owner} does not resolve"
        # install() wraps the attribute found in the class's own namespace.
        assert callable(cls.__dict__.get(attribute)), (
            f"{span}: {module}.{owner}.{attribute} does not resolve"
        )


def test_kernel_stats_is_a_dict():
    from repro.polyhedra.simplex import kernel_stats

    assert isinstance(kernel_stats(), dict)
