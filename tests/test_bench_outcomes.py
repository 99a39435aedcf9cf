"""The benchmark's seed-1 outcome digests, from one pass of the library.

A change that moves an answer, a witness's color count or a kernel's
size moves these digests, which the benchmark otherwise shows only when
it is run.  The bench files are loaded as modules, read and not written.
"""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(monkeypatch, name):
    """bench/<name>.py as the module `name`, which the other bench files
    import it as; the entry is dropped from sys.modules after the test."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload,digest", [
    ("oracle-exact", "ce0aa90b273bff8c"),
    ("kernel-decide", "308eca8a2bd14145"),
    ("auto-solve", "29273160c3d7e0a8"),
])
def test_seed_1_outcome_digests(monkeypatch, tmp_path, workload, digest):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in bench/
    for name in ("check", "spans", "workloads"):
        _load(monkeypatch, name)
    run = _load(monkeypatch, "run")
    wl = run.wl
    # the modules this process already uses: `workloads.import_library`
    # imports cfcolor afresh, which would leave other tests holding
    # classes of a discarded copy
    lib = types.SimpleNamespace(
        **{name: importlib.import_module(f"cfcolor.{name}") for name in wl.LIB_MODULES})
    instances = wl.build(lib, workload, wl.select(wl.load_pool(), workload, 1), tmp_path)
    one_pass = run.Run(instances)
    for i in range(len(instances)):
        one_pass.call(i)
    if workload != "auto-solve":  # auto-solve's known exit-2 inputs are in its digest
        assert [o.status for o in one_pass.outcomes].count("ok") == len(instances)
    assert run.digest(one_pass.outcomes) == digest
