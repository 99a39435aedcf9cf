"""The benchmark tracer's function list against the library it traces."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_library_functions():
    # a renamed or deleted traced function would otherwise break only a
    # traced bench run (`bench/run.py --trace 1`)
    traced = _load_spans().TRACED
    names = [(mod, fn) for mod, fns in traced.items() for fn in fns]
    assert len(names) == 32
    for mod, fn in names:
        owner = importlib.import_module(f"cfcolor.{mod}")
        assert callable(getattr(owner, fn, None)), f"cfcolor.{mod}.{fn}"
