"""The benchmark tracer (benchmarks/tracer.py) must keep wrapping the layers.

It patches functions and methods by name, so a refactor that renames or
moves one of them breaks ``benchmarks/run.py --trace 1``.  The benchmark's
own tests catch that too, but they sit outside the tier-1 test paths.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("varheat_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _holder_name(owner):
    return owner.__qualname__ if isinstance(owner, type) else owner.__name__


def _bindings(targets):
    """(holder, name) -> object for every varheat module attribute and every
    member of a traced class."""
    holders = {key: mod for key, mod in sys.modules.items()
               if key == "varheat" or key.startswith("varheat.")}
    holders.update({_holder_name(owner): owner for owner, *_ in targets})
    return {(where, key): value for where, holder in holders.items()
            for key, value in vars(holder).items()}


def test_tracer_wraps_and_restores_every_layer_name():
    tracer_module = _load_tracer()
    targets = tracer_module._layer_targets()
    before = _bindings(targets)
    with tracer_module.Tracer().installed():
        for owner, attr, name, _ in targets:
            assert vars(owner)[attr] is not before[(_holder_name(owner), attr)], name
    after = _bindings(targets)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
