import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepr import experiment
from sparsepr.experiment import (
    PhantomSpec,
    align_global_phase,
    binary_phase_phantom,
    flip_conjugate,
    gray_phase_phantom,
    make_support,
    phantom,
    phase_rmse,
    run_statistics,
    triangular_truncation,
    twin_correlations,
)
from sparsepr.grids import SettingError
from test_grids import is_centrosymmetric
from sparsepr.retrieval import RunReport
from sparsepr.sparsity import discrete_gradient


def desk_spec(kind="binary", pattern_seed=0):
    return PhantomSpec(image_size=128, support_size=60, kind=kind,
                       pattern_seed=pattern_seed)


# ------------------------------------------------------------ support masks

def test_make_support_geometry():
    mask = make_support(128, 60)
    assert mask.shape == (128, 128)
    assert mask.sum() == 60 * 60
    assert mask[34, 34] and mask[93, 93]
    assert not mask[33, 34] and not mask[94, 93]
    assert is_centrosymmetric(mask)


def test_make_support_rejects_oversized():
    with pytest.raises(ValueError):
        make_support(128, 64)


def test_triangular_truncation_counts_and_asymmetry():
    mask = make_support(64, 20)
    tri = triangular_truncation(mask)
    assert tri.sum() == 20 * 21 // 2
    assert np.all(mask[tri])
    assert not is_centrosymmetric(tri)


def test_triangular_truncation_rejects_non_square():
    bad = np.zeros((32, 32), dtype=bool)
    bad[4:10, 4:12] = True
    with pytest.raises(ValueError):
        triangular_truncation(bad)


# ------------------------------------------------------------ phantoms

# Every invalid PhantomSpec field (on a 32/12 spec) and its error. A bool or
# a fractional number is refused, not run as 1 or truncated.
BAD_PHANTOM_FIELDS = [
    ("kind", "photo", "kind"), ("image_size", 31, "even"), ("support_size", 13, "even"),
    ("support_size", 16, "half the image size"), ("support_size", 0, "half the image size"),
    ("image_size", 32.0, "image_size"), ("image_size", True, "image_size"),
    ("support_size", 12.0, "support_size"), ("pattern_seed", 1.5, "pattern_seed"),
    ("pattern_seed", True, "pattern_seed"), ("pattern_seed", -1, "pattern_seed"),
    ("phase_step", True, "phase_step"), ("phase_step", "2", "phase_step"),
    ("phase_step", float("inf"), "phase_step must be finite"),
    ("phase_range", None, "phase_range"), ("phase_range", float("nan"), "phase_range"),
]


def test_phantom_spec_validation():
    for key, value, message in BAD_PHANTOM_FIELDS:
        with pytest.raises(SettingError, match=message):
            PhantomSpec(**{"image_size": 32, "support_size": 12, key: value})


def test_phantom_spec_accepts_numpy_scalars():
    spec = PhantomSpec(image_size=np.int64(32), support_size=np.int32(12),
                       phase_step=np.float64(2.0), pattern_seed=np.uint8(3))
    assert binary_phase_phantom(spec).shape == (32, 32)


def test_binary_phantom_structure():
    spec = desk_spec()
    truth = binary_phase_phantom(spec)
    mask = make_support(spec.image_size, spec.support_size)
    assert not truth[~mask].any()
    mods = np.abs(truth[mask])
    assert np.allclose(mods, 1.0, atol=1e-12)
    phases = np.angle(truth[mask])
    levels = np.unique(np.round(phases, 9))
    assert len(levels) == 2
    assert np.isclose(levels[0], 0.0)
    assert np.isclose(levels[1], spec.phase_step)


def test_binary_phantom_level_balance():
    spec = desk_spec()
    truth = binary_phase_phantom(spec)
    mask = make_support(spec.image_size, spec.support_size)
    raised = np.abs(np.angle(truth[mask])) > 1e-9
    assert 0.30 <= raised.mean() <= 0.65


def test_binary_phantom_distinguishable_from_own_twin():
    # the twin metric is only meaningful when the phantom does not
    # resemble its own flip-conjugate
    spec = desk_spec()
    truth = binary_phase_phantom(spec)
    mask = make_support(spec.image_size, spec.support_size)
    m = twin_correlations(truth, truth, mask)
    assert m.c_up == pytest.approx(1.0, abs=1e-12)
    assert m.c_twin < 0.30
    assert not m.twin_present


def test_binary_phantom_deterministic_per_seed():
    a = binary_phase_phantom(desk_spec(pattern_seed=0))
    b = binary_phase_phantom(desk_spec(pattern_seed=0))
    c = binary_phase_phantom(desk_spec(pattern_seed=1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gray_phantom_structure():
    spec = desk_spec(kind="gray")
    truth = gray_phase_phantom(spec)
    mask = make_support(spec.image_size, spec.support_size)
    assert not truth[~mask].any()
    assert np.allclose(np.abs(truth[mask]), 1.0, atol=1e-12)
    phases = np.angle(truth[mask])
    assert phases.min() >= -1e-12
    assert phases.max() <= spec.phase_range + 1e-12


def test_gray_phantom_has_sharp_edges():
    # the Huber penalty only matters if the phase holds genuine edges:
    # require a tail of gradient magnitudes well above the median
    spec = desk_spec(kind="gray")
    truth = gray_phase_phantom(spec)
    s = spec.support_size
    start = (spec.image_size - s) // 2
    phase = np.angle(truth[start : start + s, start : start + s])
    gx, gy = discrete_gradient(phase.astype(np.complex128))
    mags = np.sqrt(np.abs(gx) ** 2 + np.abs(gy) ** 2).ravel()
    median = np.median(mags)
    assert np.mean(mags > 4 * median) >= 0.05


def test_gray_phantom_distinguishable_from_own_twin():
    spec = desk_spec(kind="gray")
    truth = gray_phase_phantom(spec)
    mask = make_support(spec.image_size, spec.support_size)
    m = twin_correlations(truth, truth, mask)
    assert m.c_twin < 0.30
    assert not m.twin_present


@pytest.mark.parametrize("kind, overrides", [
    ("binary", {"phase_step": 0.0}),
    ("binary", {"phase_step": 2 * np.pi}),
    ("gray", {"phase_range": 0.0}),
], ids=["binary-step-0", "binary-step-2pi", "gray-range-0"])
def test_self_twin_phantom_fails_fast(kind, overrides, monkeypatch):
    # every draw of these objects is its own twin, so no draw is accepted;
    # the generator gives up after its draw budget, counted rather than timed
    draw, calls = experiment._xor_rectangles, []

    def counted(rng, s):
        calls.append(s)
        return draw(rng, s)

    monkeypatch.setattr(experiment, "_xor_rectangles", counted)
    spec = PhantomSpec(image_size=32, support_size=12, kind=kind, **overrides)
    with pytest.raises(SettingError, match="distinguishable from its twin"):
        phantom(spec)
    assert len(calls) == experiment.MAX_PHANTOM_DRAWS


@pytest.mark.parametrize("kind", ["binary", "gray"])
def test_two_pixel_support_fails_with_the_documented_error(kind):
    # rectangles of the generator's minimum size must fit a 2-pixel block;
    # there every draw is flat, so the draw budget runs out
    spec = PhantomSpec(image_size=8, support_size=2, kind=kind)
    with pytest.raises(SettingError, match="distinguishable from its twin in 500 draws"):
        phantom(spec)


def test_rectangle_art_unchanged_for_supports_of_four_and_more():
    # digest of the two-level patterns drawn before rectangle sizes were capped
    digest = hashlib.sha256()
    for s in (4, 6, 12, 60):
        rng = np.random.default_rng(s)
        for _ in range(3):
            digest.update(experiment._xor_rectangles(rng, s).tobytes())
    assert digest.hexdigest() == (
        "868e2a6c70cb7aeafa9b0d994ecd33c1dc6da89a8416b334fc75f42a7b124bbc")


# ------------------------------------------------------------ twin algebra

def test_flip_conjugate_is_involution():
    rng = np.random.default_rng(2)
    f = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
    assert np.array_equal(flip_conjugate(flip_conjugate(f)), f)


def test_flip_conjugate_hand_case():
    f = np.array([[1 + 2j, 0], [0, 3 - 1j]])
    out = flip_conjugate(f)
    assert out[0, 0] == 3 + 1j
    assert out[1, 1] == 1 - 2j


def test_align_global_phase_recovers_offset():
    truth = binary_phase_phantom(desk_spec())
    mask = make_support(128, 60)
    rotated = truth * np.exp(1j * 0.7)
    aligned = align_global_phase(rotated, truth, mask)
    assert np.max(np.abs(aligned - truth)) < 1e-12


def test_twin_correlations_on_pure_cases():
    truth = binary_phase_phantom(desk_spec())
    mask = make_support(128, 60)
    twin = flip_conjugate(truth)
    m_true = twin_correlations(truth, truth, mask)
    m_twin = twin_correlations(twin, truth, mask)
    assert m_true.c_up == pytest.approx(1.0, abs=1e-12)
    assert m_twin.c_twin == pytest.approx(1.0, abs=1e-12)
    assert not m_true.twin_present
    assert not m_twin.twin_present


def test_twin_correlations_flags_superposition():
    truth = binary_phase_phantom(desk_spec())
    mask = make_support(128, 60)
    blend = 0.5 * (truth + flip_conjugate(truth))
    m = twin_correlations(blend, truth, mask)
    assert m.twin_present
    assert m.c_up > 0.35 and m.c_twin > 0.35


def test_twin_correlations_invariant_to_global_phase():
    truth = binary_phase_phantom(desk_spec())
    mask = make_support(128, 60)
    m1 = twin_correlations(truth, truth, mask)
    m2 = twin_correlations(truth * np.exp(1.3j), truth, mask)
    assert m1.c_up == pytest.approx(m2.c_up, abs=1e-12)
    assert m1.c_twin == pytest.approx(m2.c_twin, abs=1e-12)


@settings(max_examples=200)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_flip_conjugate_swaps_the_twin_correlations(h, w, seed):
    # holds for every centrosymmetric support, such as the paper's square
    rng = np.random.default_rng(seed)
    mask = rng.random((h, w)) < 0.5
    mask[rng.integers(h), rng.integers(w)] = True
    mask |= mask[::-1, ::-1]
    recon, truth = (rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w)) for _ in range(2))
    direct = twin_correlations(recon, truth, mask)
    flipped = twin_correlations(flip_conjugate(recon), truth, mask)
    assert flipped.c_up == pytest.approx(direct.c_twin, rel=1e-12, abs=1e-15)
    assert flipped.c_twin == pytest.approx(direct.c_up, rel=1e-12, abs=1e-15)


# ------------------------------------------------------------ phase error

def test_phase_rmse_zero_for_truth_and_twin():
    truth = binary_phase_phantom(desk_spec())
    mask = make_support(128, 60)
    assert phase_rmse(truth, truth, mask) < 1e-12
    assert phase_rmse(flip_conjugate(truth), truth, mask) < 1e-12
    assert phase_rmse(truth * np.exp(0.4j), truth, mask) < 1e-12


def test_phase_rmse_detects_perturbation():
    truth = gray_phase_phantom(desk_spec(kind="gray"))
    mask = make_support(128, 60)
    rng = np.random.default_rng(5)
    noisy = truth * np.exp(1j * 0.2 * rng.normal(size=truth.shape))
    err = phase_rmse(noisy, truth, mask)
    assert 0.1 < err < 0.3


# ------------------------------------------------------------ statistics

def _fake_report(field, seed, final_penalty=0.0):
    return RunReport(
        final_field=field,
        penalty_trace=np.array([100.0, final_penalty]),
        fourier_residual_trace=np.zeros(2),
        seed=seed,
        wall_time=0.0,
    )


def test_run_statistics_means_and_counts():
    truth = binary_phase_phantom(desk_spec())
    mask = make_support(128, 60)
    blend = 0.5 * (truth + flip_conjugate(truth))
    reports = [_fake_report(truth, 0, 7.0), _fake_report(blend, 1, 3.5)]
    summary = run_statistics(reports, truth, mask)
    assert summary.n_runs == 2
    assert summary.twin_present_count == 1
    assert summary.twin_present_fraction == 0.5
    # A final penalty is the trace's last value, not one recomputed from the field.
    penalties = [r["final_penalty"] for r in summary.per_run]
    assert penalties == [7.0, 3.5]
    assert summary.penalty_mean == pytest.approx(np.mean(penalties))
    assert summary.penalty_std == pytest.approx(np.std(penalties, ddof=1))
    assert [r["seed"] for r in summary.per_run] == [0, 1]


def test_run_statistics_rejects_empty():
    truth = binary_phase_phantom(desk_spec())
    mask = make_support(128, 60)
    with pytest.raises(ValueError):
        run_statistics([], truth, mask)
