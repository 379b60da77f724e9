"""Every function the benchmark's tracer wraps must still exist, and a
retrieval run must show up under it as one run span.

benchmarks/tracing.py replaces each (module, attribute) in its TARGETS
with a timing wrapper; a name that a refactor renames or inlines would
only show up there as a null metric. This makes it a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sparsepr as sp
from sparsepr import cli

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load_tracing()
TARGETS = _TRACING.TARGETS


def test_targets_are_listed():
    assert len(TARGETS) > 0


@pytest.mark.parametrize("module_name, attribute", [(m, a) for m, a, _ in TARGETS])
def test_traced_function_exists(module_name, attribute):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute} is gone"


@pytest.mark.parametrize("entry", ["run_hio", "run_sparse_hio", "cli"])
def test_a_retrieval_records_one_run_span(tmp_path, entry):
    truth = sp.binary_phase_phantom(sp.PhantomSpec(image_size=32, support_size=12))
    magnitude = sp.magnitude_of(sp.forward_transform(truth))
    mask = sp.make_support(32, 12)
    sp.write_field_file(magnitude, tmp_path / "mag.prf1")
    sp.write_field_file(mask.astype(np.float64), tmp_path / "mask.prf1")
    config = sp.RetrievalConfig(n_iterations=2,
                                penalty=sp.PenaltySpec(kind="tv", n_inner_steps=2))
    with _TRACING.Tracer() as tracer:
        # looked up under the tracer, so the call goes through its wrapper
        if entry == "cli":
            assert cli.main(["retrieve", "--magnitude", str(tmp_path / "mag.prf1"),
                             "--mask", str(tmp_path / "mask.prf1"), "--alg", "hio-tv",
                             "--iters", "2", "--ntv", "2", "--out", str(tmp_path)]) == 0
        else:
            getattr(sp, entry)(magnitude, mask, config)
    (run,) = [i for i, span in enumerate(tracer.spans) if span[0] == _TRACING.RUN]
    # a span's fields 3 and 4 are its parent and enclosing run: the run
    # span's parent, if any, is neither a run nor inside one
    parent = tracer.spans[run][3]
    assert parent == -1 or tracer.spans[parent][4] == -1


@pytest.mark.parametrize("kind", ["binary", "gray"])
@pytest.mark.parametrize("entry", ["phantom", "cli"])
def test_a_phantom_records_one_phantom_span(tmp_path, entry, kind):
    spec = sp.PhantomSpec(image_size=32, support_size=12, kind=kind)
    with _TRACING.Tracer() as tracer:
        # the dispatch must call the generator it picks through its module
        # global, or the wrapper never sees the call
        if entry == "cli":
            assert cli.main(["phantom", "--kind", kind, "--size", "32", "--support", "12",
                             "--out", str(tmp_path)]) == 0
        else:
            sp.phantom(spec)
    assert [span[0] for span in tracer.spans].count("experiment.phantom") == 1


@pytest.mark.parametrize("kind", ["tv", "huber"])
def test_the_descent_steps_through_the_traced_functions(kind):
    """A descent that stopped calling a traced name would leave its metrics
    null in the benchmark's traced run; here it fails the suite instead."""
    truth = sp.binary_phase_phantom(sp.PhantomSpec(image_size=32, support_size=12))
    magnitude = sp.magnitude_of(sp.forward_transform(truth))
    mask = sp.make_support(32, 12)
    config = sp.RetrievalConfig(n_iterations=2,
                                penalty=sp.PenaltySpec(kind=kind, n_inner_steps=2))
    with _TRACING.Tracer() as tracer:
        sp.run_hio(magnitude, mask, config)
    names = [span[0] for span in tracer.spans]
    inner_steps = config.n_iterations * config.penalty.n_inner_steps
    assert names.count("sparsity.gradient") == inner_steps
    assert names.count(_TRACING.LINE_SEARCH) == inner_steps
    assert names.count(_TRACING.PENALTY_EVAL) >= inner_steps
    assert names.count("sparsity.select_delta") == (inner_steps if kind == "huber" else 0)
