"""Guard for the benchmark tracer's view of the program.

bench/tracer.py wraps querymix functions by (owner, attribute) and relies on
a few call signatures. A rename here would otherwise pass these unit suites
and only fail in a traced benchmark run (``bench/run.py --trace 1``). The
tracer module is loaded read-only; nothing is installed.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from querymix import matching, model, nn, queries, scenes
from querymix import tensor as T
from querymix.harness import loop

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_patches() -> list:
    spec = importlib.util.spec_from_file_location("querymix_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


PATCHES = load_patches()


@pytest.mark.parametrize("owner, attr, span", PATCHES, ids=[span for *_, span in PATCHES])
def test_patch_target_exists(owner, attr, span):
    # the tracer saves owner.__dict__[attr] before replacing it
    assert attr in owner.__dict__, f"{span}: {owner.__name__}.{attr} is gone"
    assert callable(owner.__dict__[attr])


def parameter_names(fn):
    return list(inspect.signature(fn).parameters)


def test_hooked_signatures():
    # the tracer's replacements call these positionally
    assert parameter_names(model.Detector._decode) == ["self", "queries", "memory", "branch"]
    assert parameter_names(nn.Decoder.forward) == ["self", "memory", "queries"]
    assert parameter_names(T.backward)[:2] == ["loss", "params"]
    assert parameter_names(loop.average_precision)[:3] == [
        "per_scene_preds", "scenes", "iou_thresholds"]
    assert parameter_names(scenes._ap_all_points) == ["tp_flags", "num_gt"]
    assert isinstance(T.GradientTape.__dict__["from_output"], classmethod)


def test_wrapped_names_are_the_called_ones():
    # wrapping a caller's binding only measures calls that go through it
    assert loop.batch_hungarian_loss is matching.batch_hungarian_loss
    assert loop.render is scenes.render
    assert loop.average_precision is scenes.average_precision
    assert model.coeff_forward is queries.coeff_forward
    assert model.modulate is queries.modulate
