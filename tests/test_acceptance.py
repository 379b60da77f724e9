"""End-to-end acceptance suite.

These tests run the full desk-scale experiments (128x128 grids, 60x60
support, 500 iterations, multiple seeds) and take a few minutes total.
Criteria 5-7 read their seeded batches from `sparsepr sweep` runs on every
core this process may use; criterion 9b shows that a cell's bits do not
depend on its process. Each test prints a one-line verdict so a -s run
reads as a report.
"""

import json
import os

import numpy as np
import pytest

import sparsepr as sp
from sparsepr.cli import main
from sparsepr.fieldfile import read_field_file

IMAGE_SIZE = 128
SUPPORT_SIZE = 60
N_ITERATIONS = 500
BETA = 0.9
PATTERN_SEED = 1
RUN_SEEDS = tuple(range(10))
GRAY_SEEDS = tuple(range(5))
# criteria 5-7 sweep on the cores this process may use, not on the machine's count
ALL_CORES = len(os.sched_getaffinity(0))


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def sweep(tmp_path, tag, jobs, phantom, seeds, algorithms, n_iterations=N_ITERATIONS):
    """`sparsepr sweep` of the (algorithm x seed) grid at BETA into tmp_path/tag,
    over `jobs` processes; returns that output directory."""
    out = tmp_path / tag
    cfg = {
        "phantom": phantom,
        "retrieval": {"beta": BETA, "n_iterations": n_iterations},
        "seeds": list(seeds),
        "algorithms": list(algorithms),
        "output_dir": str(out),
    }
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path), "--jobs", str(jobs)]) == 0
    return out


def summaries(out):
    """The RunSummary of each algorithm in a sweep's aggregate.json."""
    aggregate = json.loads((out / "aggregate.json").read_text())
    return {alg: sp.RunSummary(**summary) for alg, summary in aggregate["algorithms"].items()}


@pytest.fixture(scope="module")
def mask():
    return sp.make_support(IMAGE_SIZE, SUPPORT_SIZE)


@pytest.fixture(scope="module")
def binary_problem(mask):
    spec = sp.PhantomSpec(image_size=IMAGE_SIZE, support_size=SUPPORT_SIZE,
                          kind="binary", pattern_seed=PATTERN_SEED)
    truth = sp.phantom(spec)
    magnitude = sp.magnitude_of(sp.forward_transform(truth))
    return truth, magnitude, sp.tv_value(truth, mask)


@pytest.fixture(scope="module")
def binary_summaries(tmp_path_factory):
    """Criteria 5 and 6: plain HIO and HIO-TV on the binary phantom."""
    phantom = {"image_size": IMAGE_SIZE, "support_size": SUPPORT_SIZE,
               "kind": "binary", "pattern_seed": PATTERN_SEED}
    return summaries(sweep(tmp_path_factory.mktemp("binary"), "sweep", ALL_CORES,
                           phantom, RUN_SEEDS, ["hio", "hio-tv"]))


@pytest.fixture(scope="module")
def gray_sweep(tmp_path_factory):
    """Criterion 7: plain HIO and HIO-Huber on the gray phantom."""
    phantom = {"image_size": IMAGE_SIZE, "support_size": SUPPORT_SIZE,
               "kind": "gray", "pattern_seed": 0}
    return sweep(tmp_path_factory.mktemp("gray"), "sweep", ALL_CORES,
                 phantom, GRAY_SEEDS, ["hio", "hio-huber"])


# ------------------------------------------------------------ criterion 1

def dft_direct(field, sign):
    h, w = field.shape
    out = np.zeros_like(field, dtype=np.complex128)
    for ky in range(h):
        for kx in range(w):
            out[ky, kx] = np.sum(
                field
                * np.exp(sign * 2j * np.pi
                         * (kx * np.arange(w)[None, :] / w
                            + ky * np.arange(h)[:, None] / h))
            )
    return out


def test_criterion_1_transform_correctness():
    f = random_field((8, 8), 11)
    err_fwd = np.max(np.abs(sp.forward_transform(f) - dft_direct(f, -1)))
    err_inv = np.max(np.abs(sp.inverse_transform(f) - dft_direct(f, +1) / f.size))
    assert err_fwd < 1e-10
    assert err_inv < 1e-10
    worst = 0.0
    for shape in ((5, 7), (16, 16), (128, 128)):
        g = random_field(shape, 12)
        back = sp.inverse_transform(sp.forward_transform(g))
        worst = max(worst, np.max(np.abs(back - g)) / np.max(np.abs(g)))
    assert worst < 1e-12
    print(f"\ncriterion 1 PASS: dft err {max(err_fwd, err_inv):.2e}, "
          f"round-trip {worst:.2e}")


# ------------------------------------------------------------ criterion 2

def test_criterion_2_twin_ambiguity():
    worst = 0.0
    for seed in range(5):
        f = random_field((64, 64), 100 + seed)
        m1 = sp.magnitude_of(sp.forward_transform(f))
        m2 = sp.magnitude_of(sp.forward_transform(sp.flip_conjugate(f)))
        worst = max(worst, np.max(np.abs(m1 - m2)) / np.max(m1))
    assert worst < 1e-12
    print(f"\ncriterion 2 PASS: twin magnitude mismatch {worst:.2e}")


# ------------------------------------------------------------ criterion 3

def test_criterion_3_penalty_gradients():
    f = random_field((12, 12), 13)
    eps, delta = 0.05, 0.8
    worst = 0.0
    for direction_seed in range(20):
        h = random_field((12, 12), 3000 + direction_seed)
        tau = 1e-6
        for grad, value in (
            (sp.tv_gradient(f, eps), lambda g: sp.smoothed_tv_value(g, eps)),
            (sp.huber_gradient(f, delta), lambda g: sp.huber_value(g, delta)),
        ):
            fd = (value(f + tau * h) - value(f - tau * h)) / (2 * tau)
            analytic = np.sum(np.conj(grad) * h).real
            worst = max(worst, abs(fd - analytic) / abs(fd))
    assert worst < 1e-5
    px, py = random_field((12, 12), 14), random_field((12, 12), 15)
    gx, gy = sp.discrete_gradient(f)
    lhs = np.vdot(gx, px) + np.vdot(gy, py)
    rhs = -np.vdot(f, sp.discrete_divergence(px, py))
    adj = abs(lhs - rhs) / abs(lhs)
    assert adj < 1e-12
    print(f"\ncriterion 3 PASS: gradient fd err {worst:.2e}, adjointness {adj:.2e}")


# ------------------------------------------------------------ criterion 4

def test_criterion_4_descent_monotonicity():
    rng = np.random.default_rng(16)
    n = 32
    f = np.ones((n, n), dtype=np.complex128)
    f[:, n // 2:] = np.exp(2j * np.pi / 3)
    f += 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    region = np.ones((n, n), dtype=bool)
    spec = sp.PenaltySpec(kind="tv", n_inner_steps=1)
    values = [sp.tv_value(f, region)]
    cur = f
    for _ in range(30):
        cur = sp.sparsity_descent(cur, region, spec)
        values.append(sp.tv_value(cur, region))
    diffs = np.diff(values)
    decrease = 1 - values[-1] / values[0]
    assert np.all(diffs <= 1e-9 * values[0])
    assert decrease >= 0.20
    print(f"\ncriterion 4 PASS: monotone trace, total decrease {decrease:.1%}")


# ------------------------------------------------------------ criterion 5

def test_criterion_5_plain_hio_stagnates(binary_problem, binary_summaries):
    _, _, truth_tv = binary_problem
    hio_summary = binary_summaries["hio"]
    ratio = hio_summary.penalty_mean / truth_tv
    assert hio_summary.twin_present_count >= 7
    assert ratio >= 2.0
    print(f"\ncriterion 5 PASS: twins {hio_summary.twin_present_count}/10, "
          f"mean TV {ratio:.2f}x truth")


# ------------------------------------------------------------ criterion 6

def test_criterion_6_tv_eliminates_twin(binary_problem, binary_summaries):
    _, _, truth_tv = binary_problem
    hio_tv_summary = binary_summaries["hio-tv"]
    deviation = abs(hio_tv_summary.penalty_mean / truth_tv - 1)
    assert hio_tv_summary.twin_present_count <= 1
    assert deviation <= 0.25
    print(f"\ncriterion 6 PASS: twins {hio_tv_summary.twin_present_count}/10, "
          f"mean TV within {deviation:.1%} of truth")


# ------------------------------------------------------------ criterion 7

def test_criterion_7_gray_huber(gray_sweep, mask):
    truth = read_field_file(gray_sweep / "truth.prf1")
    twin_free = 0
    improvements = []
    for run in summaries(gray_sweep)["hio-huber"].per_run:
        plain = read_field_file(gray_sweep / f"recon_hio_{run['seed']:08d}.prf1")
        assisted = read_field_file(gray_sweep / f"recon_hio-huber_{run['seed']:08d}.prf1")
        twin_free += int(not run["twin_present"])
        rmse_plain = sp.phase_rmse(plain, truth, mask)
        rmse_huber = sp.phase_rmse(assisted, truth, mask)
        improvements.append(rmse_plain - rmse_huber)
    assert twin_free >= 4
    assert all(gain > 0 for gain in improvements)
    print(f"\ncriterion 7 PASS: twin-free {twin_free}/5, "
          f"rmse gain per seed {[f'{g:.3f}' for g in improvements]}")


# ------------------------------------------------------------ criterion 8

def test_criterion_8_truncation_does_not_fix(binary_problem, mask):
    truth, magnitude, _ = binary_problem
    tri = sp.triangular_truncation(mask)
    reports = []
    for seed in RUN_SEEDS:
        cfg = sp.RetrievalConfig(beta=BETA, n_iterations=N_ITERATIONS,
                                 seed=seed, penalty=sp.PenaltySpec(kind="none"))
        reports.append(sp.run_hio(magnitude, mask, cfg,
                                  initial_mask=tri, initial_iterations=10))
    summary = sp.run_statistics(reports, truth, mask)
    assert summary.twin_present_count >= 5
    print(f"\ncriterion 8 PASS: twins {summary.twin_present_count}/10 "
          "despite truncated start")


# ------------------------------------------------------------ criterion 9

def test_criterion_9a_zero_inner_steps_degeneracy(binary_problem, mask):
    _, magnitude, _ = binary_problem
    plain = sp.run_hio(
        magnitude, mask,
        sp.RetrievalConfig(beta=BETA, n_iterations=N_ITERATIONS, seed=0,
                           penalty=sp.PenaltySpec(kind="none")))
    degenerate = sp.run_sparse_hio(
        magnitude, mask,
        sp.RetrievalConfig(beta=BETA, n_iterations=N_ITERATIONS, seed=0,
                           penalty=sp.PenaltySpec(kind="tv", n_inner_steps=0)))
    assert np.array_equal(plain.final_field, degenerate.final_field)
    assert np.array_equal(plain.penalty_trace, degenerate.penalty_trace)
    print("\ncriterion 9a PASS: N_TV=0 bit-equals plain HIO")


def test_criterion_9b_parallel_determinism(tmp_path):
    phantom = {"image_size": 64, "support_size": 24, "kind": "binary", "pattern_seed": 2}
    serial = sweep(tmp_path, "serial", 1, phantom, [0, 1, 2], ["hio", "hio-tv"], 40)
    parallel = sweep(tmp_path, "parallel", 8, phantom, [0, 1, 2], ["hio", "hio-tv"], 40)
    for alg in ("hio", "hio-tv"):
        for seed in (0, 1, 2):
            name = f"recon_{alg}_{seed:08d}.prf1"
            assert np.array_equal(read_field_file(serial / name),
                                  read_field_file(parallel / name))
    agg_s = json.loads((serial / "aggregate.json").read_text())
    agg_p = json.loads((parallel / "aggregate.json").read_text())
    assert agg_s["algorithms"] == agg_p["algorithms"]
    print("\ncriterion 9b PASS: --jobs 1 and --jobs 8 bit-identical")
