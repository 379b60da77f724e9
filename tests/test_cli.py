import argparse
import dataclasses
import json
from concurrent.futures import Future
from unittest.mock import patch

import numpy as np
import pytest

from sparsepr import cli, retrieval, sparsity
from sparsepr.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_USAGE,
    build_parser,
    magnitude_preview,
    main,
    phase_preview,
    write_pgm,
)
from sparsepr.experiment import (PhantomSpec, binary_phase_phantom, gray_phase_phantom,
                                 make_support, run_statistics)
from sparsepr.fieldfile import read_field_file, write_field_file
from sparsepr.fourier import forward_transform, magnitude_of
from sparsepr.sparsity import PenaltySpec


def make_inputs(tmp_path, image_size=32, support_size=12, pattern_seed=3):
    spec = PhantomSpec(image_size=image_size, support_size=support_size,
                       pattern_seed=pattern_seed)
    truth = binary_phase_phantom(spec)
    mask = make_support(image_size, support_size)
    magnitude = magnitude_of(forward_transform(truth))
    write_field_file(truth, tmp_path / "truth.prf1")
    write_field_file(mask.astype(np.float64), tmp_path / "support.prf1")
    write_field_file(magnitude, tmp_path / "magnitude.prf1")
    return truth, mask, magnitude


# ------------------------------------------------------------ previews

def test_write_pgm_layout(tmp_path):
    values = np.arange(6, dtype=float).reshape(2, 3) * 40
    path = tmp_path / "img.pgm"
    write_pgm(path, values)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 2\n255\n")
    assert raw[len(b"P5\n3 2\n255\n"):] == bytes([0, 40, 80, 120, 160, 200])


def test_phase_preview_bounds():
    f = np.exp(1j * np.linspace(-np.pi, np.pi, 16)).reshape(4, 4)
    v = phase_preview(f)
    assert v.min() >= 0 and v.max() <= 255


def test_magnitude_preview_zero_safe():
    assert not magnitude_preview(np.zeros((4, 4))).any()


# ------------------------------------------------------------ subcommands

@pytest.mark.parametrize("kind", ["binary", "gray"])
def test_phantom_command(tmp_path, kind):
    out = tmp_path / "ph"
    code = main(["phantom", "--kind", kind, "--size", "32", "--support", "12",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    spec = PhantomSpec(image_size=32, support_size=12, kind=kind, pattern_seed=3)
    truth = read_field_file(out / "truth.prf1")
    generate = binary_phase_phantom if kind == "binary" else gray_phase_phantom
    assert np.array_equal(truth, generate(spec))
    support = read_field_file(out / "support.prf1")
    assert np.array_equal(support != 0, make_support(32, 12))
    assert (out / "truth_phase.pgm").exists()
    spec_echo = json.loads((out / "phantom.json").read_text())
    assert spec_echo == dataclasses.asdict(spec)


def test_flag_defaults_are_the_configs_defaults():
    parser = build_parser()
    phantom = parser.parse_args(["phantom"])
    # one flag per PhantomSpec field, plus --out: a field cannot lose its flag
    # and no flag can set what the spec does not hold
    flag_fields = {"size": "image_size", "support": "support_size", "kind": "kind",
                   "seed": "pattern_seed"}
    assert set(vars(phantom)) - {"command", "func", "out"} == set(flag_fields)
    assert sorted(flag_fields.values()) == sorted(f.name for f in dataclasses.fields(PhantomSpec))
    spec = PhantomSpec(image_size=phantom.size, support_size=phantom.support)
    assert (phantom.kind, phantom.seed) == (spec.kind, spec.pattern_seed)
    run = parser.parse_args(["retrieve", "--magnitude", "m", "--mask", "s"])
    config = retrieval.RetrievalConfig()
    assert (run.beta, run.iters, run.seed) == (config.beta, config.n_iterations, config.seed)


def test_every_flag_is_pinned():
    # the whole settable surface, 20 flags: a new flag needs a change here
    (subcommands,) = [action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    flags = {name: sorted(option for action in sub._actions for option in action.option_strings
                          if option not in ("-h", "--help"))
             for name, sub in subcommands.items()}
    assert flags == {
        "phantom": ["--kind", "--out", "--seed", "--size", "--support"],
        "forward": ["--out", "--truth"],
        "retrieve": ["--alg", "--beta", "--iters", "--magnitude", "--mask", "--ntv", "--out",
                     "--seed"],
        "sweep": ["--config", "--jobs"],
        "metrics": ["--mask", "--recon", "--truth"],
    }


def test_phantom_rejects_bad_geometry(tmp_path):
    code = main(["phantom", "--size", "32", "--support", "20",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE


def test_phantom_self_twin_step_is_usage_error(tmp_path, capsys):
    # the phase step and range are constants of the generators, so neither
    # flag exists for either kind, whatever its value
    for kind in ("binary", "gray"):
        for flag in ("--step", "--range"):
            for value in ("0", "1"):
                code = main(["phantom", "--kind", kind, flag, value, "--size", "32",
                             "--support", "12", "--out", str(tmp_path / "ph")])
                assert code == EXIT_USAGE
                assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
                assert not (tmp_path / "ph").exists()


def test_phantom_two_pixel_support_is_usage_error(tmp_path, capsys):
    code = main(["phantom", "--size", "8", "--support", "2",
                 "--out", str(tmp_path / "ph")])
    assert code == EXIT_USAGE
    assert "distinguishable from its twin" in capsys.readouterr().err
    assert not (tmp_path / "ph").exists()


@pytest.mark.parametrize("flag", ["--step", "--range"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_phantom_non_finite_setting_is_usage_error(tmp_path, capsys, flag, value):
    # neither flag exists, so its value is never read
    code = main(["phantom", f"{flag}={value}", "--size", "32", "--support", "12",
                 "--out", str(tmp_path / "ph")])
    assert code == EXIT_USAGE
    assert f"unrecognized arguments: {flag}={value}" in capsys.readouterr().err
    assert not (tmp_path / "ph").exists()


def test_forward_command(tmp_path):
    truth, _, magnitude = make_inputs(tmp_path)
    out = tmp_path / "fw"
    code = main(["forward", "--truth", str(tmp_path / "truth.prf1"),
                 "--out", str(out)])
    assert code == 0
    written = read_field_file(out / "magnitude.prf1")
    assert np.array_equal(written, magnitude)


def test_forward_missing_input(tmp_path):
    code = main(["forward", "--truth", str(tmp_path / "nope.prf1"),
                 "--out", str(tmp_path)])
    assert code == EXIT_DATA


@pytest.mark.parametrize("value", [np.nan, complex(0, np.inf)])
def test_forward_refuses_non_finite_truth(tmp_path, capsys, value):
    truth, _, _ = make_inputs(tmp_path)
    truth[0, 0] = value
    path = tmp_path / "bad_truth.prf1"
    write_field_file(truth, path)
    out = tmp_path / "fw"
    assert main(["forward", "--truth", str(path), "--out", str(out)]) == EXIT_DATA
    assert f"truth file {path} has non-finite samples" in capsys.readouterr().err
    assert not out.exists()


def test_retrieve_command(tmp_path):
    make_inputs(tmp_path)
    out = tmp_path / "run"
    code = main(["retrieve",
                 "--magnitude", str(tmp_path / "magnitude.prf1"),
                 "--mask", str(tmp_path / "support.prf1"),
                 "--alg", "hio", "--iters", "6", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    recon = read_field_file(out / "recon.prf1")
    assert recon.shape == (32, 32)
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["algorithm"] == "hio"
    assert report["config"]["seed"] == 1
    assert len(report["penalty_trace"]) == 6
    assert len(report["fourier_residual_trace"]) == 6


def test_retrieve_warns_on_ignored_ntv(tmp_path, capsys):
    make_inputs(tmp_path)
    code = main(["retrieve",
                 "--magnitude", str(tmp_path / "magnitude.prf1"),
                 "--mask", str(tmp_path / "support.prf1"),
                 "--alg", "hio", "--iters", "2", "--ntv", "5",
                 "--out", str(tmp_path / "warn")])
    assert code == 0
    assert "n_inner_steps ignored" in capsys.readouterr().err


def test_retrieve_sparse_matches_library(tmp_path):
    from sparsepr.retrieval import RetrievalConfig, run_sparse_hio

    _, mask, magnitude = make_inputs(tmp_path)
    out = tmp_path / "tv"
    code = main(["retrieve",
                 "--magnitude", str(tmp_path / "magnitude.prf1"),
                 "--mask", str(tmp_path / "support.prf1"),
                 "--alg", "hio-tv", "--iters", "4", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    recon = read_field_file(out / "recon.prf1")
    expected = run_sparse_hio(
        magnitude, mask,
        RetrievalConfig(n_iterations=4, seed=2, penalty=PenaltySpec(kind="tv")),
    ).final_field
    assert np.array_equal(recon, expected)


def test_retrieve_report_echoes_every_penalty_field(tmp_path):
    make_inputs(tmp_path)
    out = tmp_path / "huber"
    code = main(["retrieve",
                 "--magnitude", str(tmp_path / "magnitude.prf1"),
                 "--mask", str(tmp_path / "support.prf1"),
                 "--alg", "hio-huber", "--iters", "2", "--ntv", "3",
                 "--out", str(out)])
    assert code == 0
    echo = json.loads((out / "report.json").read_text())["config"]
    loop = {"algorithm", "beta", "n_iterations", "seed", "penalty"}
    names = {f.name for f in dataclasses.fields(PenaltySpec)} - {"kind"}
    assert set(echo) - loop == names
    fields = {name: echo[name] for name in names}
    assert PenaltySpec(kind=echo["penalty"], **fields) == PenaltySpec(kind="huber", n_inner_steps=3)


def test_retrieve_non_finite_iterate_exits_numeric(tmp_path, monkeypatch, capsys):
    make_inputs(tmp_path)
    real_descent = retrieval.sparsity_descent

    def descent_with_nan(g, window, spec, **kwargs):
        g = real_descent(g, window, spec, **kwargs)
        g[window.rows.start, window.cols.start] = np.nan
        return g

    monkeypatch.setattr(retrieval, "sparsity_descent", descent_with_nan)
    code = main(["retrieve",
                 "--magnitude", str(tmp_path / "magnitude.prf1"),
                 "--mask", str(tmp_path / "support.prf1"),
                 "--alg", "hio-tv", "--iters", "4", "--ntv", "2",
                 "--out", str(tmp_path / "nan")])
    assert code == EXIT_NUMERIC
    assert "non-finite field at iteration 1 of 4" in capsys.readouterr().err


@pytest.mark.parametrize("flags, bad_file, code, message", [
    (["--iters", "0"], None, EXIT_USAGE, "n_iterations must be >= 1"),
    (["--alg", "hio-huber", "--ntv", "-1"], None, EXIT_USAGE, "n_inner_steps must be >= 0"),
    (["--alg", "hio-huber", "--delta", "1e300"], None, EXIT_USAGE,
     "unrecognized arguments: --delta"),
    (["--alg", "hio-tv", "--eps", "1e-6"], None, EXIT_USAGE, "unrecognized arguments: --eps"),
    (["--alg", "hio-tv", "--tinit", "0.1"], None, EXIT_USAGE, "unrecognized arguments: --tinit"),
    ([], "mask", EXIT_DATA, "mask has no true pixels"),
    ([], "magnitude", EXIT_DATA, "magnitude data must be nonnegative and finite"),
    ([], "complex-magnitude", EXIT_DATA, "magnitude data must be real"),
], ids=["bad-setting", "bad-penalty-setting", "overflowing-delta", "removed-eps",
        "removed-tinit", "all-false-mask", "negative-magnitude", "complex-magnitude"])
def test_bad_settings_exit_usage_and_bad_data_exits_data(tmp_path, capsys, flags, bad_file,
                                                         code, message):
    # both raise a ValueError; only a SettingError is a usage error
    _, mask, magnitude = make_inputs(tmp_path)
    if bad_file == "mask":
        write_field_file(np.zeros(mask.shape), tmp_path / "support.prf1")
    elif bad_file == "magnitude":
        magnitude[0, 0] = -1.0
        write_field_file(magnitude, tmp_path / "magnitude.prf1")
    elif bad_file == "complex-magnitude":
        write_field_file(magnitude + 1j, tmp_path / "magnitude.prf1")
    code_seen = main(["retrieve",
                      "--magnitude", str(tmp_path / "magnitude.prf1"),
                      "--mask", str(tmp_path / "support.prf1"),
                      "--iters", "2", *flags, "--out", str(tmp_path / "run")])
    assert code_seen == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_retrieve_bad_flag_values(tmp_path):
    make_inputs(tmp_path)
    code = main(["retrieve",
                 "--magnitude", str(tmp_path / "magnitude.prf1"),
                 "--mask", str(tmp_path / "support.prf1"),
                 "--alg", "hio-tv", "--iters", "0",
                 "--out", str(tmp_path / "bad")])
    assert code == EXIT_USAGE


def test_retrieve_negative_seed_is_usage_error(tmp_path):
    make_inputs(tmp_path)
    code = main(["retrieve",
                 "--magnitude", str(tmp_path / "magnitude.prf1"),
                 "--mask", str(tmp_path / "support.prf1"),
                 "--alg", "hio", "--iters", "2", "--seed", "-1",
                 "--out", str(tmp_path / "bad")])
    assert code == EXIT_USAGE
    assert not (tmp_path / "bad").exists()


# --tinit, --eps and --delta are not flags (the descent's first trial and TV
# smoothing are solver constants, Huber's delta is the per-step median): a run
# that passes one is refused before its value is read.
@pytest.mark.parametrize("alg, flag, value, message", [
    ("hio-tv", "--tinit", "inf", "unrecognized arguments: --tinit inf"),
    ("hio-tv", "--eps", "inf", "unrecognized arguments: --eps inf"),
    ("hio-tv", "--eps", "nan", "unrecognized arguments: --eps nan"),
    ("hio-huber", "--delta", "inf", "unrecognized arguments: --delta inf"),
    ("hio-huber", "--delta", "nan", "unrecognized arguments: --delta nan")],
    ids=["hio-tv---tinit-inf", "hio-tv---eps-inf", "hio-tv---eps-nan", "hio-huber---delta-inf",
         "hio-huber---delta-nan"])
def test_retrieve_non_finite_setting_is_usage_error(tmp_path, capsys, alg, flag, value, message):
    make_inputs(tmp_path)
    code = main(["retrieve",
                 "--magnitude", str(tmp_path / "magnitude.prf1"),
                 "--mask", str(tmp_path / "support.prf1"),
                 "--alg", alg, "--iters", "2", flag, value,
                 "--out", str(tmp_path / "bad")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_retrieve_overflowing_setting_is_a_numerical_failure(tmp_path, capsys):
    # at this TV smoothing the square of epsilon * max|g| overflows in the
    # first descent step
    make_inputs(tmp_path)
    with patch.object(sparsity, "EPSILON", 1e300):
        code = main(["retrieve",
                     "--magnitude", str(tmp_path / "magnitude.prf1"),
                     "--mask", str(tmp_path / "support.prf1"),
                     "--alg", "hio-tv", "--iters", "3",
                     "--out", str(tmp_path / "big")])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "in the descent at iteration 1 of 3" in err
    assert "Traceback" not in err
    assert not (tmp_path / "big").exists()


def test_metrics_command(tmp_path, capsys):
    make_inputs(tmp_path)
    code = main(["metrics",
                 "--recon", str(tmp_path / "truth.prf1"),
                 "--truth", str(tmp_path / "truth.prf1"),
                 "--mask", str(tmp_path / "support.prf1")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c_up"] == pytest.approx(1.0, abs=1e-12)
    assert payload["twin_present"] is False
    assert payload["phase_rmse"] < 1e-12


def test_metrics_of_a_real_recon_are_those_of_its_complex_cast(tmp_path, capsys):
    """A real-valued recon file gives the JSON of the same grid written as complex."""
    truth, _, _ = make_inputs(tmp_path)
    recon = truth.real + 0.1 * np.random.default_rng(5).normal(size=truth.shape)
    recon[::3, ::2] = -0.0
    printed = []
    for name, grid in (("real.prf1", recon), ("complex.prf1", recon.astype(np.complex128))):
        write_field_file(grid, tmp_path / name)
        assert read_field_file(tmp_path / name).dtype == grid.dtype
        assert main(["metrics", "--recon", str(tmp_path / name),
                     "--truth", str(tmp_path / "truth.prf1"),
                     "--mask", str(tmp_path / "support.prf1")]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


@pytest.mark.parametrize("command", ["metrics", "sweep"])
def test_twin_threshold_is_not_a_flag(tmp_path, command):
    make_inputs(tmp_path)
    inputs = {"metrics": ["--recon", str(tmp_path / "truth.prf1"),
                          "--truth", str(tmp_path / "truth.prf1"),
                          "--mask", str(tmp_path / "support.prf1")],
              "sweep": ["--config", str(sweep_config(tmp_path, [0], ["hio"]))]}
    code = main([command, *inputs[command], "--twin-threshold", "0.5"])
    assert code == EXIT_USAGE
    assert not (tmp_path / "sweep_out").exists()


def _write_mask_with(tmp_path, value):
    mask = make_support(32, 12).astype(np.float64)
    mask[0, 0] = value
    path = tmp_path / "bad_support.prf1"
    write_field_file(mask, path)
    return path


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_retrieve_refuses_non_finite_magnitude(tmp_path, capsys, value):
    _, _, magnitude = make_inputs(tmp_path)
    magnitude[0, 0] = value
    path = tmp_path / "bad_magnitude.prf1"
    write_field_file(magnitude, path)
    out = tmp_path / "run"
    code = main(["retrieve", "--magnitude", str(path),
                 "--mask", str(tmp_path / "support.prf1"), "--alg", "hio", "--iters", "2",
                 "--out", str(out)])
    assert code == EXIT_DATA
    assert f"magnitude file {path} has non-finite samples" in capsys.readouterr().err
    assert not out.exists()


def test_retrieve_refuses_mask_with_bad_magic(tmp_path, capsys):
    make_inputs(tmp_path)
    path = tmp_path / "support.prf1"
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    out = tmp_path / "run"
    code = main(["retrieve", "--magnitude", str(tmp_path / "magnitude.prf1"),
                 "--mask", str(path), "--alg", "hio", "--iters", "2", "--out", str(out)])
    assert code == EXIT_DATA
    assert f"error: {path}: bad magic b'XXXX', expected b'PRF1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_retrieve_refuses_non_finite_mask(tmp_path, capsys, value):
    make_inputs(tmp_path)
    mask = _write_mask_with(tmp_path, value)
    out = tmp_path / "run"
    code = main(["retrieve",
                 "--magnitude", str(tmp_path / "magnitude.prf1"),
                 "--mask", str(mask), "--alg", "hio", "--iters", "2",
                 "--out", str(out)])
    assert code == EXIT_DATA
    assert f"mask file {mask} has non-finite samples" in capsys.readouterr().err
    assert not out.exists()


def test_metrics_refuses_non_finite_mask(tmp_path, capsys):
    make_inputs(tmp_path)
    mask = _write_mask_with(tmp_path, np.nan)
    code = main(["metrics",
                 "--recon", str(tmp_path / "truth.prf1"),
                 "--truth", str(tmp_path / "truth.prf1"),
                 "--mask", str(mask)])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert f"mask file {mask} has non-finite samples" in captured.err
    assert captured.out == ""


def test_metrics_refuses_non_zero_reserved_bytes(tmp_path, capsys):
    make_inputs(tmp_path)
    path = tmp_path / "reserved.prf1"
    raw = bytearray((tmp_path / "truth.prf1").read_bytes())
    raw[13:16] = b"xyz"
    path.write_bytes(bytes(raw))
    code = main(["metrics", "--recon", str(path), "--truth", str(tmp_path / "truth.prf1"),
                 "--mask", str(tmp_path / "support.prf1")])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert "reserved header bytes 13-15 are b'xyz'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("role", ["recon", "truth"])
@pytest.mark.parametrize("value", [np.nan, complex(0, np.inf)])
def test_metrics_refuses_non_finite_field(tmp_path, capsys, role, value):
    # one bad in-support sample used to print bare NaN (not JSON) and
    # "twin_present": false, with exit 0
    truth, mask, _ = make_inputs(tmp_path)
    bad = truth.copy()
    bad[16, 16] = value
    assert mask[16, 16]
    path = tmp_path / f"bad_{role}.prf1"
    write_field_file(bad, path)
    files = {"recon": tmp_path / "truth.prf1", "truth": tmp_path / "truth.prf1", role: path}
    code = main(["metrics", "--recon", str(files["recon"]), "--truth", str(files["truth"]),
                 "--mask", str(tmp_path / "support.prf1")])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert f"{role} file {path} has non-finite samples" in captured.err
    assert captured.out == ""


# ------------------------------------------------------------ sweep

def sweep_config(tmp_path, seeds, algorithms, iters=4):
    cfg = {
        "phantom": {"image_size": 32, "support_size": 12, "kind": "binary",
                    "pattern_seed": 3},
        "retrieval": {"beta": 0.9, "n_iterations": iters},
        "seeds": seeds,
        "algorithms": algorithms,
        "output_dir": str(tmp_path / "sweep_out"),
    }
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_layout_and_aggregate(tmp_path):
    cfg = sweep_config(tmp_path, seeds=[0, 1], algorithms=["hio", "hio-tv"])
    code = main(["sweep", "--config", str(cfg)])
    assert code == 0
    out = tmp_path / "sweep_out"
    for alg in ("hio", "hio-tv"):
        for seed in (0, 1):
            assert (out / f"recon_{alg}_{seed:08d}.prf1").exists()
            cell = json.loads((out / f"recon_{alg}_{seed:08d}.json").read_text())
            assert cell["config"]["seed"] == seed
    aggregate = json.loads((out / "aggregate.json").read_text())
    assert set(aggregate["algorithms"]) == {"hio", "hio-tv"}
    assert aggregate["algorithms"]["hio"]["n_runs"] == 2
    assert aggregate["failures"] == []


def test_sweep_parallel_bit_identical(tmp_path):
    cfg1 = sweep_config(tmp_path / "a", seeds=[0, 1, 2], algorithms=["hio"])
    cfg2 = sweep_config(tmp_path / "b", seeds=[0, 1, 2], algorithms=["hio"])
    assert main(["sweep", "--config", str(cfg1), "--jobs", "1"]) == 0
    assert main(["sweep", "--config", str(cfg2), "--jobs", "4"]) == 0
    for seed in (0, 1, 2):
        name = f"recon_hio_{seed:08d}.prf1"
        a = read_field_file(tmp_path / "a" / "sweep_out" / name)
        b = read_field_file(tmp_path / "b" / "sweep_out" / name)
        assert np.array_equal(a, b)
    agg_a = json.loads((tmp_path / "a" / "sweep_out" / "aggregate.json").read_text())
    agg_b = json.loads((tmp_path / "b" / "sweep_out" / "aggregate.json").read_text())
    assert agg_a["algorithms"] == agg_b["algorithms"]


def test_sweep_equals_direct_runs(tmp_path):
    # The acceptance suite reads criteria 5-7 from sweeps, so each cell must
    # be run_hio of the same config, bit for bit, and each aggregate entry
    # the JSON of run_statistics over those runs.
    algorithms = ["hio", "hio-tv", "hio-huber"]
    cfg = sweep_config(tmp_path, seeds=[0, 1], algorithms=algorithms)
    assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == 0
    out = tmp_path / "sweep_out"
    aggregate = json.loads((out / "aggregate.json").read_text())
    truth, mask, magnitude = make_inputs(tmp_path)
    for alg in algorithms:
        reports = [retrieval.run_hio(magnitude, mask, retrieval.RetrievalConfig(
            beta=0.9, n_iterations=4, seed=seed, penalty=PenaltySpec(kind=cli.ALGORITHMS[alg])))
            for seed in (0, 1)]
        for report in reports:
            swept = read_field_file(out / f"recon_{alg}_{report.seed:08d}.prf1")
            assert (swept.dtype, swept.shape) == (report.final_field.dtype,
                                                  report.final_field.shape)
            assert swept.tobytes() == report.final_field.tobytes()
        direct = dataclasses.asdict(run_statistics(reports, truth, mask))
        assert aggregate["algorithms"][alg] == json.loads(json.dumps(direct))


def test_sweep_rejects_duplicate_seeds(tmp_path):
    cfg = sweep_config(tmp_path, seeds=[1, 1], algorithms=["hio"])
    assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE


@pytest.mark.parametrize("seeds", [[0.5, 1.9], [0, True], [0, "1"], [1.0]])
def test_sweep_rejects_non_integer_seeds(tmp_path, capsys, seeds):
    cfg = sweep_config(tmp_path, seeds=seeds, algorithms=["hio"])
    assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE
    assert "seeds must be" in capsys.readouterr().err
    assert not (tmp_path / "sweep_out").exists()


# a string is not an array of names, though it iterates as one
@pytest.mark.parametrize("algorithms", [["hio", "hio"], ["hio-tv", "hio", "hio-tv"], [], "hio"])
def test_sweep_rejects_repeated_or_no_algorithms(tmp_path, capsys, algorithms):
    cfg = sweep_config(tmp_path, seeds=[0, 1], algorithms=algorithms)
    assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == EXIT_USAGE
    assert "algorithms must be" in capsys.readouterr().err
    assert not (tmp_path / "sweep_out").exists()


@pytest.mark.parametrize("key, value", [
    ("pattern_seed", 1.5), ("image_size", 32.0), ("pattern_seed", True), ("pattern_seed", -1),
    ("phase_step", True), ("phase_step", float("inf")), ("phase_range", float("nan")),
    ("phase_step", 2.0), ("phase_range", 1.0)])
def test_sweep_rejects_bad_phantom_setting_before_writing(tmp_path, capsys, key, value):
    # the phase step and range are generator constants: any value of either key
    # is refused
    cfg = sweep_config(tmp_path, seeds=[0], algorithms=["hio"])
    payload = json.loads(cfg.read_text())
    payload["phantom"][key] = value
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: invalid sweep config") and key in err
    assert not (tmp_path / "sweep_out").exists()


def test_sweep_rejects_negative_seeds(tmp_path):
    cfg = sweep_config(tmp_path, seeds=[0, -1], algorithms=["hio"])
    assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE
    assert not (tmp_path / "sweep_out").exists()


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_sweep_rejects_jobs_below_one(tmp_path, jobs):
    cfg = sweep_config(tmp_path, seeds=[0], algorithms=["hio"])
    assert main(["sweep", "--config", str(cfg), "--jobs", jobs]) == EXIT_USAGE
    assert not (tmp_path / "sweep_out").exists()


def test_sweep_rejects_unknown_algorithm(tmp_path):
    cfg = sweep_config(tmp_path, seeds=[0], algorithms=["er"])
    assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE


def test_sweep_missing_config(tmp_path, capsys):
    path = tmp_path / "none.json"
    assert main(["sweep", "--config", str(path)]) == EXIT_DATA
    assert str(path) in capsys.readouterr().err


def test_sweep_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["sweep", "--config", str(path)]) == EXIT_USAGE


def test_sweep_rejects_unknown_retrieval_key(tmp_path, capsys):
    # epsilon and t_init are solver constants, not settings, and Huber's
    # delta is always the median; an array of pairs is not an object
    rows = [({"n_iterations": 4, key: 3}, f"unknown retrieval keys in sweep config: {key}")
            for key in ("n_iner_steps", "epsilon", "t_init", "delta")]
    rows.append(([["beta", 0.5], ["n_iterations", 2]], "retrieval must be an object"))
    for retrieval, message in rows:
        cfg = sweep_config(tmp_path, seeds=[0], algorithms=["hio-tv"])
        payload = json.loads(cfg.read_text())
        payload["retrieval"] = retrieval
        cfg.write_text(json.dumps(payload))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sweep_out").exists()


# a key that belongs in the "retrieval" or "phantom" object, or a misspelt one,
# would otherwise be dropped and its setting left at the default
@pytest.mark.parametrize("key, value", [
    ("n_iterations", 3), ("n_inner_steps", 2), ("pattern_seed", 5), ("output", "x")])
def test_sweep_rejects_unknown_top_level_key(tmp_path, capsys, key, value):
    cfg = sweep_config(tmp_path, seeds=[0], algorithms=["hio"])
    payload = json.loads(cfg.read_text())
    payload[key] = value
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE
    assert f"unknown top-level keys in sweep config: {key}" in capsys.readouterr().err
    assert not (tmp_path / "sweep_out").exists()


def test_sweep_output_dir_is_the_one_output_setting(tmp_path, capsys):
    cfg = sweep_config(tmp_path, seeds=[0], algorithms=["hio"])
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "sweep_out").exists() and not (tmp_path / "x").exists()


def test_sweep_warns_on_ignored_n_inner_steps(tmp_path, capsys):
    # as retrieve --alg hio --ntv does
    cfg = sweep_config(tmp_path, seeds=[0], algorithms=["hio"], iters=2)
    payload = json.loads(cfg.read_text())
    payload["retrieval"]["n_inner_steps"] = 5
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err.count("n_inner_steps ignored for hio (no penalty)") == 1
    cell = json.loads((tmp_path / "sweep_out" / "recon_hio_00000000.json").read_text())
    assert "n_inner_steps" not in cell["config"]


# epsilon, t_init and delta are not settings: whatever the value, the key
# itself is refused.
@pytest.mark.parametrize("key, value, message", [
    ("epsilon", -1, "unknown retrieval keys"), ("delta", "foo", "unknown retrieval keys"),
    ("delta", True, "unknown retrieval keys"), ("t_init", 0, "unknown retrieval keys"),
    ("n_inner_steps", 2.5, "invalid penalty settings"), ("epsilon", True, "unknown retrieval keys"),
    ("t_init", True, "unknown retrieval keys"), ("t_init", float("inf"), "unknown retrieval keys"),
    ("epsilon", float("nan"), "unknown retrieval keys"),
    ("delta", float("inf"), "unknown retrieval keys"), ("delta", 1e300, "unknown retrieval keys"),
    ("n_inner_steps", None, "invalid penalty settings")],
    ids=["epsilon--1", "delta-foo", "delta-True", "t_init-0", "n_inner_steps-2.5", "epsilon-True",
         "t_init-True", "t_init-inf", "epsilon-nan", "delta-inf", "delta-1e+300",
         "n_inner_steps-None"])
def test_sweep_rejects_bad_penalty_setting_before_writing(tmp_path, capsys, key, value, message):
    cfg = sweep_config(tmp_path, seeds=[0, 1], algorithms=["hio", "hio-huber"])
    payload = json.loads(cfg.read_text())
    payload["retrieval"][key] = value
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sweep_out").exists()


@pytest.mark.parametrize("alg", ["hio", "hio-tv", "hio-huber"],
                         ids=["hio-median", "hio-tv-median", "hio-huber-median"])
def test_sweep_reports_one_final_penalty(tmp_path, alg):
    cfg = sweep_config(tmp_path, seeds=[0], algorithms=[alg])
    payload = json.loads(cfg.read_text())
    payload["phantom"]["kind"] = "gray"
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = tmp_path / "sweep_out"
    cell = json.loads((out / f"recon_{alg}_00000000.json").read_text())
    aggregate = json.loads((out / "aggregate.json").read_text())
    if alg != "hio":
        assert set(cell["config"]) - {"algorithm", "beta", "n_iterations", "seed"} == {
            "penalty", "n_inner_steps"}
    assert aggregate["algorithms"][alg]["per_run"][0]["final_penalty"] == cell["final_penalty"]


@pytest.mark.parametrize("alg, kind", [("hio-tv", "binary"), ("hio-huber", "gray")])
def test_metrics_penalties_are_penalty_value_and_the_cells_final_penalty(tmp_path, capsys, alg,
                                                                         kind):
    # scripts/bench_whole_runs.py scores a run's penalty over the truth's
    # from `metrics`, so each penalty field must be penalty_value of its
    # kind, and the field of the run's own kind its cell's final_penalty.
    cfg = sweep_config(tmp_path, seeds=[0], algorithms=[alg])
    payload = json.loads(cfg.read_text())
    payload["phantom"]["kind"] = kind
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = tmp_path / "sweep_out"
    capsys.readouterr()
    assert main(["metrics", "--recon", str(out / f"recon_{alg}_00000000.prf1"),
                 "--truth", str(out / "truth.prf1"), "--mask", str(out / "support.prf1")]) == 0
    printed = json.loads(capsys.readouterr().out)
    recon = read_field_file(out / f"recon_{alg}_00000000.prf1")
    mask = make_support(32, 12)
    for field, penalty in (("tv_in_support", "tv"), ("huber_in_support", "huber")):
        assert printed[field] == retrieval.penalty_value(recon, mask, PenaltySpec(kind=penalty))
    cell = json.loads((out / f"recon_{alg}_00000000.json").read_text())
    own = "tv_in_support" if cli.ALGORITHMS[alg] == "tv" else "huber_in_support"
    assert printed[own] == cell["final_penalty"]


class _SyncPool:
    """A ProcessPoolExecutor stand-in that runs each cell when submitted."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - handed to the caller
            future.set_exception(exc)
        return future


@pytest.mark.parametrize("seeds, jobs, pools", [
    ([0, 1], "4", [2]), ([0, 1, 2], "2", [2]), ([0], "4", []), ([0, 1], "1", [])],
    ids=["2cells-jobs4", "3cells-jobs2", "1cell-jobs4", "2cells-jobs1"])
def test_sweep_pool_has_at_most_one_worker_per_cell(tmp_path, monkeypatch, seeds, jobs, pools):
    monkeypatch.setattr(_SyncPool, "created", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SyncPool)
    cfg = sweep_config(tmp_path, seeds=seeds, algorithms=["hio"], iters=2)
    assert main(["sweep", "--config", str(cfg), "--jobs", jobs]) == 0
    assert _SyncPool.created == pools
    aggregate = json.loads((tmp_path / "sweep_out" / "aggregate.json").read_text())
    assert aggregate["algorithms"]["hio"]["n_runs"] == len(seeds)


def test_sweep_failure_names_its_exception(tmp_path):
    # at this TV smoothing the square of epsilon * max|g| overflows in the
    # first descent step of every hio-tv cell; str() of the error alone does
    # not name its type. One job runs the cells in this process, under the patch.
    cfg = sweep_config(tmp_path, seeds=[0], algorithms=["hio", "hio-tv"], iters=2)
    with patch.object(sparsity, "EPSILON", 1e300):
        assert main(["sweep", "--config", str(cfg), "--jobs", "1"]) == EXIT_DATA
    aggregate = json.loads((tmp_path / "sweep_out" / "aggregate.json").read_text())
    (failure,) = aggregate["failures"]
    assert (failure["algorithm"], failure["seed"]) == ("hio-tv", 0)
    assert failure["error"].startswith("FloatingPointError: ")
    assert set(aggregate["algorithms"]) == {"hio"}


def test_sweep_with_failed_cells_exits_data_after_aggregate(tmp_path):
    # n_iterations 0 fails inside every cell, not before the sweep starts
    cfg = sweep_config(tmp_path, seeds=[0, 1], algorithms=["hio"], iters=0)
    assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == EXIT_DATA
    aggregate = json.loads((tmp_path / "sweep_out" / "aggregate.json").read_text())
    assert [(f["algorithm"], f["seed"]) for f in aggregate["failures"]] == [("hio", 0), ("hio", 1)]
    assert all("n_iterations" in f["error"] for f in aggregate["failures"])
    assert aggregate["algorithms"] == {}
