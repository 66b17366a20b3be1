"""The benchmark's tracer wraps cfqsim functions by name: each of its
targets must still name a callable, or traced benchmark runs break with
no other test failing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [f"{module}.{attr}" for module, attr, *_ in _tracing().TARGETS]


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves_to_a_callable(target):
    module_name, attr = target.split(".", 1)
    owner = importlib.import_module(f"cfqsim.{module_name}")
    if "." in attr:  # a method, which the tracer reads from the class __dict__
        cls_name, attr = attr.split(".")
        owner = vars(getattr(owner, cls_name))
    else:
        owner = vars(owner)
    assert callable(owner.get(attr)), f"bench/tracing.py traces {target}, which cfqsim no longer defines"
