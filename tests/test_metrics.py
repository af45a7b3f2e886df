"""Metric formulas against hand values and independent oracles."""

import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import t as student_t

from imt import metrics as mx
from imt.errors import DegenerateInputError, FormatError, InvalidInputError
from imt.imgstack import ComplexImageStack


def random_mags(rng, shape=(2, 16, 16), lo=1.0, hi=3.0):
    return rng.uniform(lo, hi, size=shape)


# ---------------------------------------------------------------------------
# psnr


def test_psnr_identical_is_inf(rng):
    a = random_mags(rng)
    assert mx.psnr(a, a) == math.inf


def test_psnr_hand_value():
    ref = np.array([[[0.0, 4.0], [8.0, 12.0]]])
    test = np.array([[[1.0, 5.0], [9.0, 13.0]]])
    got = mx.psnr(test, ref)
    assert got == pytest.approx(10 * math.log10(169), rel=1e-12)
    assert got == pytest.approx(22.279, abs=1e-3)


def test_psnr_scale_invariant(rng):
    a = random_mags(rng)
    b = random_mags(rng)
    assert mx.psnr(2 * a, 2 * b) == mx.psnr(a, b)


def test_psnr_monotone_in_perturbation(rng):
    ref = random_mags(rng, shape=(1, 12, 12))
    delta = rng.uniform(-0.1, 0.1, size=ref.shape)
    values = [mx.psnr(ref + k * delta, ref) for k in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_psnr_shape_mismatch(rng):
    with pytest.raises(InvalidInputError):
        mx.psnr(np.ones((1, 4, 4)), np.ones((1, 4, 5)))


def test_metrics_phase_invariant(rng):
    a = (rng.standard_normal((2, 12, 12)) + 1j * rng.standard_normal((2, 12, 12))).astype(
        np.complex64
    )
    b = (rng.standard_normal((2, 12, 12)) + 1j * rng.standard_normal((2, 12, 12))).astype(
        np.complex64
    )
    # multiplying by i permutes re/im exactly; magnitudes are bitwise equal
    assert mx.psnr(a * np.complex64(1j), b) == mx.psnr(a, b)
    assert mx.ssim(a * np.complex64(1j), b) == mx.ssim(a, b)
    assert mx.nrmse(a * np.complex64(1j), b) == mx.nrmse(a, b)


# ---------------------------------------------------------------------------
# ssim


def test_ssim_identical_is_one(rng):
    a = random_mags(rng)
    assert mx.ssim(a, a.copy()) == 1.0


def test_ssim_constant_vs_noise_near_zero(rng):
    ref = np.full((1, 32, 32), 5.0)
    test = ref + rng.standard_normal((1, 32, 32)) * 3.0
    assert mx.ssim(test, ref) < 0.1


def ssim_oracle(a, b, size=11, sigma=1.5):
    c = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - c) ** 2) / (2 * sigma * sigma))
    win = np.outer(g, g)
    win /= win.sum()
    rng_val = max(a.max(), b.max()) - min(a.min(), b.min())
    c1 = (0.01 * rng_val) ** 2
    c2 = (0.03 * rng_val) ** 2
    slice_means = []
    for s in range(a.shape[0]):
        vals = []
        for i in range(a.shape[1] - size + 1):
            for j in range(a.shape[2] - size + 1):
                wa = a[s, i : i + size, j : j + size]
                wb = b[s, i : i + size, j : j + size]
                mx_, my_ = np.sum(win * wa), np.sum(win * wb)
                vx = np.sum(win * wa * wa) - mx_ * mx_
                vy = np.sum(win * wb * wb) - my_ * my_
                cov = np.sum(win * wa * wb) - mx_ * my_
                vals.append(
                    ((2 * mx_ * my_ + c1) * (2 * cov + c2))
                    / ((mx_ * mx_ + my_ * my_ + c1) * (vx + vy + c2))
                )
        slice_means.append(np.mean(vals))
    return float(np.mean(slice_means))


def test_ssim_matches_direct_formula_oracle(rng):
    # the last stack is smaller than the window, which is reduced to 9
    for shape, size in (((2, 14, 13), 11), ((3, 12, 17), 11), ((2, 9, 12), 9)):
        a = random_mags(rng, shape=shape)
        b = a + rng.uniform(-0.3, 0.3, size=a.shape)
        assert mx.ssim(a, b) == pytest.approx(ssim_oracle(a, b, size=size), rel=1e-6)


def test_ssim_symmetric(rng):
    a = random_mags(rng)
    b = random_mags(rng)
    assert mx.ssim(a, b) == pytest.approx(mx.ssim(b, a), abs=1e-9)


def test_ssim_small_slice_reduces_window(rng, caplog):
    a = random_mags(rng, shape=(1, 8, 8))
    b = a + rng.uniform(-0.1, 0.1, size=a.shape)
    with caplog.at_level(logging.INFO, logger="imt.metrics"):
        got = mx.ssim(a, b)
    assert -1.0 <= got <= 1.0
    assert any("reduced to 7" in rec.message for rec in caplog.records)
    assert got == pytest.approx(ssim_oracle(a, b, size=7), rel=1e-6)


# ---------------------------------------------------------------------------
# nrmse


def test_nrmse_identical_is_zero(rng):
    a = random_mags(rng)
    assert mx.nrmse(a, a) == 0.0


def test_nrmse_scaled_reference():
    ref = np.linspace(1, 5, 16).reshape(1, 4, 4)
    assert mx.nrmse(1.1 * ref, ref) == pytest.approx(0.1, rel=1e-10)


def test_nrmse_joint_scaling_invariant(rng):
    a = random_mags(rng)
    b = random_mags(rng)
    assert mx.nrmse(3 * a, 3 * b) == pytest.approx(mx.nrmse(a, b), rel=1e-12)


def test_nrmse_zero_reference_rejected():
    with pytest.raises(DegenerateInputError):
        mx.nrmse(np.ones((1, 4, 4)), np.zeros((1, 4, 4)))


def test_nrmse_range_mode(rng):
    a = random_mags(rng)
    b = random_mags(rng)
    rng_val = mx.pair_range(a, b)
    rmse = math.sqrt(float(np.mean((a - b) ** 2)))
    assert mx.nrmse(a, b, mode="range") == pytest.approx(rmse / rng_val, rel=1e-12)
    with pytest.raises(InvalidInputError):
        mx.nrmse(a, b, mode="minmax")


def test_nrmse_triangle_inequality(rng):
    a = random_mags(rng)
    b = random_mags(rng)
    c = random_mags(rng)
    norm_b = float(np.linalg.norm(b))
    norm_c = float(np.linalg.norm(c))
    lhs = mx.nrmse(a, c) * norm_c
    rhs = mx.nrmse(a, b) * norm_b + mx.nrmse(b, c) * norm_c
    assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# paired t-test


def test_t_test_equal_scores():
    t, p = mx.paired_t_test([3, 4, 5, 2], [3, 4, 5, 2])
    assert t == 0.0
    assert p == 1.0


def test_t_test_hand_value():
    a = [2.0, 4.0, 5.0, 7.0]
    b = [1.0, 2.0, 2.0, 3.0]  # d = [1, 2, 3, 4]
    t, p = mx.paired_t_test(a, b)
    sd = math.sqrt(5.0 / 3.0)
    assert t == pytest.approx(2.5 / (sd / 2.0), rel=1e-12)
    assert t == pytest.approx(3.873, abs=1e-3)
    assert p == pytest.approx(2 * float(student_t.sf(t, 3)), rel=1e-12)
    assert p == pytest.approx(0.0305, abs=5e-4)


def test_t_test_pairing_invariance(rng):
    a = rng.uniform(1, 5, 6)
    b = rng.uniform(1, 5, 6)
    perm = rng.permutation(6)
    t1, p1 = mx.paired_t_test(a, b)
    t2, p2 = mx.paired_t_test(a[perm], b[perm])
    assert t1 == pytest.approx(t2, rel=1e-12)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_t_test_zero_variance_offset():
    t, p = mx.paired_t_test([2, 3, 4], [1, 2, 3])
    assert t == math.inf
    assert p == 0.0


def test_t_test_validation():
    with pytest.raises(InvalidInputError):
        mx.paired_t_test([1.0], [2.0])
    with pytest.raises(InvalidInputError):
        mx.paired_t_test([1, 2], [1, 2, 3])


# ---------------------------------------------------------------------------
# bland-altman


def test_bland_altman_identical():
    res = mx.bland_altman([1, 2, 3], [1, 2, 3])
    assert (res.mean_diff, res.loa_low, res.loa_high) == (0.0, 0.0, 0.0)


def test_bland_altman_hand_value():
    res = mx.bland_altman([1, 0, 1, 0], [0, 1, 0, 1])  # d = [1, -1, 1, -1]
    sd = math.sqrt(4.0 / 3.0)
    assert res.mean_diff == 0.0
    assert res.loa_low == pytest.approx(-1.96 * sd, rel=1e-12)
    assert res.loa_high == pytest.approx(1.96 * sd, rel=1e-12)
    assert len(res.points) == 4
    assert res.points[0] == (0.5, 1.0)


def test_bland_altman_translation(rng):
    a = rng.uniform(1, 5, 5)
    b = rng.uniform(1, 5, 5)
    base = mx.bland_altman(a, b)
    shifted = mx.bland_altman(a + 2.0, b)
    assert shifted.mean_diff == pytest.approx(base.mean_diff + 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# icc


def test_icc_duplicate_raters_is_one():
    table = [[1, 1], [2, 2], [4, 4], [5, 5]]
    assert mx.icc_two_way_single(table) == 1.0


def anova_icc_oracle(x):
    x = np.asarray(x, dtype=np.float64)
    n, k = x.shape
    grand = x.mean()
    msr = k * np.sum((x.mean(axis=1) - grand) ** 2) / (n - 1)
    msc = n * np.sum((x.mean(axis=0) - grand) ** 2) / (k - 1)
    sse = np.sum((x - grand) ** 2) - k * np.sum((x.mean(axis=1) - grand) ** 2) - n * np.sum(
        (x.mean(axis=0) - grand) ** 2
    )
    mse = sse / ((n - 1) * (k - 1))
    return (msr - mse) / (msr + (k - 1) * mse + k * (msc - mse) / n)


def test_icc_matches_anova_oracle():
    table = [[4.0, 4.0], [3.0, 3.5], [5.0, 4.0], [2.0, 2.5]]
    assert mx.icc_two_way_single(table) == pytest.approx(anova_icc_oracle(table), abs=1e-9)


def test_icc_validation():
    with pytest.raises(InvalidInputError):
        mx.icc_two_way_single([[1, 2]])
    with pytest.raises(InvalidInputError):
        mx.icc_two_way_single([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DegenerateInputError):
        mx.icc_two_way_single([[2, 2], [2, 2]])


def test_icc_interpretation_labels():
    assert mx.icc_interpretation(0.59) == "moderate"
    assert mx.icc_interpretation(0.49) == "poor"
    assert mx.icc_interpretation(0.5) == "moderate"
    assert mx.icc_interpretation(0.75) == "good"
    assert mx.icc_interpretation(0.92) == "excellent"


# ---------------------------------------------------------------------------
# report


def test_report_round_trip(rng, tmp_path):
    a = random_mags(rng, shape=(2, 12, 12))
    b = a + rng.uniform(-0.2, 0.2, size=a.shape)
    report = mx.build_report([("case1", b, a), ("case2", a, a)])
    path = tmp_path / "report.json"
    mx.write_report(report, path)
    raw = json.loads(path.read_text())
    case2 = next(c for c in raw["cases"] if c["id"] == "case2")
    assert case2["psnr"] == "inf"
    assert case2["ssim"] == 1.0
    doc = mx.load_report(path)
    case2 = next(c for c in doc["cases"] if c["id"] == "case2")
    assert case2["psnr"] == math.inf
    assert doc["aggregate"]["psnr"]["mean"] == math.inf


@pytest.mark.parametrize(
    "raw",
    [
        b"5",
        b'{"cases": 5, "aggregate": {}}',
        b'{"cases": [3], "aggregate": {}}',
        b'{"cases": [{"id": "a", "psnr": 1.0, "ssim": 0.5}], "aggregate": {}}',
        b'{"cases": [], "aggregate": [1]}',
        b'{"cases": [], "aggregate": {"psnr": 3}}',
        b'{"cases": [], "aggregate": {}, "id": "\xff"}',
    ],
    ids=[
        "root-int",
        "cases-int",
        "case-int",
        "missing-metric",
        "aggregate-list",
        "aggregate-of-int",
        "bad-utf8",
    ],
)
def test_load_report_malformed(tmp_path, raw):
    path = tmp_path / "report.json"
    path.write_bytes(raw)
    with pytest.raises(FormatError):
        mx.load_report(path)


def test_report_aggregate_hand_values():
    cases = [
        mx.CaseMetrics("a", psnr=20.0, ssim=0.8, nrmse=0.2),
        mx.CaseMetrics("b", psnr=30.0, ssim=0.9, nrmse=0.1),
    ]
    agg = mx.MetricsReport(cases).aggregate()
    assert agg["psnr"]["mean"] == 25.0
    assert agg["psnr"]["std"] == pytest.approx(math.sqrt(50.0), rel=1e-12)
    assert agg["nrmse"]["mean"] == pytest.approx(0.15, rel=1e-12)


def test_case_metrics_validation():
    with pytest.raises(InvalidInputError):
        mx.CaseMetrics("x", psnr=10.0, ssim=1.5, nrmse=0.1)
    with pytest.raises(InvalidInputError):
        mx.CaseMetrics("x", psnr=10.0, ssim=0.5, nrmse=-0.1)


@pytest.mark.parametrize(
    "make",
    [
        lambda r: (r.normal(size=(3, 8, 9)) + 1j * r.normal(size=(3, 8, 9))).astype(np.complex64),
        lambda r: r.normal(size=(3, 8, 9)) + 1j * r.normal(size=(3, 8, 9)),
        lambda r: (r.normal(size=(8, 9)) + 1j * r.normal(size=(8, 9))).astype(np.complex64),
        lambda r: r.normal(size=(3, 8, 9)),
        lambda r: np.append(r.uniform(1, 2, size=3 * 8 * 9 - 1), -0.0).reshape(3, 8, 9),
    ],
    ids=["complex64", "complex128", "2-D", "negative-real", "signed-zero"],
)
def test_magnitude_stack_is_bitwise_abs(rng, make):
    a = make(rng)
    want = np.abs(a.astype(np.complex128)).reshape((-1,) + a.shape[-2:])
    got = mx.magnitude_stack(a)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_magnitude_stack_keeps_float64_magnitudes(rng):
    a = random_mags(rng)
    assert mx.magnitude_stack(a) is a
    assert np.shares_memory(mx.magnitude_stack(a[0]), a)


def test_magnitude_stack_converts_slice_by_slice(rng):
    shape = (16, 64, 64)
    a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(np.complex64)
    payload = math.prod(shape) * 8  # one float64 magnitude stack
    tracemalloc.start()
    try:
        mx.magnitude_stack(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result plus one complex128 slice; a whole-stack complex128 copy
    # would add two payloads
    assert peak < 1.25 * payload


def test_evaluate_case_converts_each_stack_once(rng):
    shape = (16, 64, 64)
    test, ref = (
        ComplexImageStack(
            (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(np.complex64)
        )
        for _ in range(2)
    )
    payload = math.prod(shape) * 8  # one float64 magnitude stack
    tracemalloc.start()
    try:
        case = mx.evaluate_case("c", test, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two magnitude stacks, plus nrmse's difference a - b; a metric that
    # converts or copies the pair again adds two payloads
    assert peak < 3.25 * payload
    assert case == mx.CaseMetrics(
        "c", mx.psnr(test, ref), mx.ssim(test, ref), mx.nrmse(test, ref)
    )


def test_evaluate_case_reaches_the_public_metrics(rng, monkeypatch):
    # tracers wrap the module attributes, so evaluate_case must look them up
    a, b = rng.uniform(1.0, 2.0, size=(2, 2, 12, 12))
    calls = []
    for name in mx.METRIC_NAMES:
        def spy(x, y, _metric=getattr(mx, name), _name=name):
            calls.append(_name)
            return _metric(x, y)
        monkeypatch.setattr(mx, name, spy)
    mx.evaluate_case("c", a, b)
    assert sorted(calls) == sorted(mx.METRIC_NAMES)


def test_build_report_needs_cases():
    with pytest.raises(InvalidInputError):
        mx.build_report([])


# ---------------------------------------------------------------------------
# rater csv


def test_rater_csv_round_trip(tmp_path):
    scores = [
        mx.RaterScore("case1", "r1", 4, 5, 3, 4),
        mx.RaterScore("case1", "r2", 3, 4, 3, 3),
    ]
    path = tmp_path / "raters.csv"
    mx.write_rater_csv(scores, path)
    assert path.read_text().splitlines()[0] == "case_id,rater_id,noise,sharpness,detail,overall"
    assert mx.read_rater_csv(path) == scores


def test_rater_csv_bad_header(tmp_path):
    path = tmp_path / "raters.csv"
    path.write_text("case,rater,noise,sharpness,detail,overall\ncase1,r1,3,3,3,3\n")
    with pytest.raises(FormatError, match="line 1"):
        mx.read_rater_csv(path)


def test_rater_csv_bad_rows(tmp_path):
    header = "case_id,rater_id,noise,sharpness,detail,overall\n"
    path = tmp_path / "raters.csv"
    path.write_text(header + "case1,r1,3,3,3\n")
    with pytest.raises(FormatError, match="line 2"):
        mx.read_rater_csv(path)
    path.write_text(header + "case1,r1,3,3,3,3\ncase2,r1,3,3,3.5,3\n")
    with pytest.raises(FormatError, match="line 3"):
        mx.read_rater_csv(path)
    path.write_text(header + "case1,r1,3,3,3,6\n")
    with pytest.raises(FormatError, match="line 2"):
        mx.read_rater_csv(path)


def test_rater_score_validation():
    with pytest.raises(InvalidInputError):
        mx.RaterScore("c", "r", 0, 3, 3, 3)
    with pytest.raises(InvalidInputError):
        mx.RaterScore("c", "r", 3, 3, 3, 6)
