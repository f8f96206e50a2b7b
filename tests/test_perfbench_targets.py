"""The benchmark's traced pass wraps dualmem functions by name; every name must resolve.

``perfbench/spans.py`` is imported read-only. A refactor that renames or removes
a traced function fails here instead of crashing the traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass and annotation lookups need the module registered
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_resolves_and_is_restored(spans):
    """``instrument`` looks up every target on entry: a missing one raises there."""
    import dualmem.memory
    import dualmem.stats

    retrieve = dualmem.memory.DualMemory.__dict__["retrieve"]
    train_lda = dualmem.stats.train_lda
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert dualmem.memory.DualMemory.__dict__["retrieve"] is not retrieve
        assert dualmem.stats.train_lda is not train_lda
    assert dualmem.memory.DualMemory.__dict__["retrieve"] is retrieve
    assert dualmem.stats.train_lda is train_lda
    # A hook whose target is gone would never fire.
    assert set(spans.HOOKS) <= {f"{m}.{n}" for m, names in spans.TARGETS.items() for n in names}
