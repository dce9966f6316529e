"""The benchmark's tracer still fits the package it patches.

perfbench/tracing.py wraps freeop's functions by name.  Installing it here
makes a deleted or renamed function fail this suite, not only a traced
benchmark run, and checks that uninstalling puts every name back.
"""
import importlib
import importlib.util
from pathlib import Path

import freeop

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    tracing = _load_tracing()
    modules = {layer: importlib.import_module(f"freeop.{layer}") for layer in tracing.LAYERS}
    owners = [freeop, *modules.values(), modules["polynomials"].MultiPoly,
              modules["shuffle"].ShuffleElement]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install(freeop)
    try:
        patched = {(id(owner), key) for owner, key, _ in tracer._undo}
        for layer, entries in tracing.TABLE.items():
            for attr in entries:
                *cls, name = attr.split(".")
                owner = getattr(modules[layer], cls[0]) if cls else modules[layer]
                assert (id(owner), name) in patched, f"{layer}.{attr} not patched"
        for owner, key, original in tracer._undo:
            assert vars(owner)[key] is not original, f"{key} not replaced"
    finally:
        tracer.uninstall()
    for owner, old in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == old.keys(), owner
        changed = [key for key in old if now[key] is not old[key]]
        assert changed == [], f"{owner.__name__}: not restored: {changed}"
