"""Image-quality metrics and the rater-agreement statistics.

All image metrics run on magnitudes in double precision; complex inputs are
converted first, so stacks that differ only by phase score identically. The
dynamic range of a pair is (max - min) over the union of both magnitude
stacks, shared by PSNR and SSIM.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.stats import t as student_t

from .container import atomic_write
from .errors import DegenerateInputError, FormatError, InvalidInputError, check_fields
from .imgstack import ComplexImageStack, magnitudes

log = logging.getLogger(__name__)

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def magnitude_stack(x) -> np.ndarray:
    """Magnitudes as a float64 (S, H, W) array; 2-D input becomes one slice.

    Float64 input with no sign bit set is its own magnitude: used uncopied.
    """
    a = x.data if isinstance(x, ComplexImageStack) else np.asarray(x)
    if a.ndim == 2:
        a = a[None]
    if a.ndim != 3:
        raise InvalidInputError(f"expected a 2-D slice or 3-D stack, got shape {a.shape}")
    if np.iscomplexobj(a):
        return magnitudes(a)
    if a.dtype == np.float64 and not np.signbit(a).any():
        return a
    return np.abs(np.asarray(a, dtype=np.float64))


def _magnitude_pair(test, ref):
    a = magnitude_stack(test)
    b = magnitude_stack(ref)
    if a.shape != b.shape:
        raise InvalidInputError(f"shape mismatch: test {a.shape} vs ref {b.shape}")
    return a, b


def pair_range(test, ref) -> float:
    """Dynamic range (max - min) over the union of both magnitude stacks."""
    a, b = _magnitude_pair(test, ref)
    return float(max(a.max(), b.max()) - min(a.min(), b.min()))


def psnr(test, ref) -> float:
    """Mean over slices of 10*log10(range^2 / slice MSE).

    The range is shared across the pair. A slice with zero MSE contributes
    +inf, which propagates to the mean; report it as the string "inf", never
    a substitute number.
    """
    a, b = _magnitude_pair(test, ref)
    rng = pair_range(a, b)
    vals = []
    for s in range(a.shape[0]):
        mse = float(np.mean((a[s] - b[s]) ** 2))
        vals.append(math.inf if mse == 0.0 else 10.0 * math.log10(rng * rng / mse))
    return float(np.mean(vals))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian; the 2-D SSIM window is its outer product."""
    c = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - c) ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()


def _blur(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Valid-mode correlation with the window outer(g, g), one 1-D pass per axis."""
    x = sliding_window_view(x, g.size, axis=0) @ g
    return sliding_window_view(x, g.size, axis=1) @ g


def ssim(test, ref) -> float:
    """Gaussian-windowed SSIM, mean over pixels then slices.

    Standard constants (11x11 window, sigma 1.5, K1=0.01, K2=0.03) with the
    pair-union dynamic range. Slices smaller than the window reduce it to the
    largest odd size that fits (logged).
    """
    a, b = _magnitude_pair(test, ref)
    if np.array_equal(a, b):
        return 1.0
    _, h, w = a.shape
    size = SSIM_WINDOW
    if min(h, w) < size:
        size = min(h, w)
        if size % 2 == 0:
            size -= 1
        log.info("slice %dx%d smaller than SSIM window, reduced to %d", h, w, size)
    rng = pair_range(a, b)
    c1 = (SSIM_K1 * rng) ** 2
    c2 = (SSIM_K2 * rng) ** 2
    g = _gaussian_window(size, SSIM_SIGMA)
    vals = []
    for s in range(a.shape[0]):
        x, y = a[s], b[s]
        mu_x = _blur(x, g)
        mu_y = _blur(y, g)
        var_x = _blur(x * x, g) - mu_x * mu_x
        var_y = _blur(y * y, g) - mu_y * mu_y
        cov = _blur(x * y, g) - mu_x * mu_y
        num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        vals.append(float(np.mean(num / den)))
    return float(np.mean(vals))


def nrmse(test, ref, mode: str = "signal") -> float:
    """Normalized RMSE over the whole stack.

    mode 'signal' (default) is ||test - ref|| / ||ref||; mode 'range' is
    RMSE divided by the pair-union dynamic range.
    """
    if mode not in ("signal", "range"):
        raise InvalidInputError(f"unknown nrmse mode {mode!r}")
    a, b = _magnitude_pair(test, ref)
    if mode == "signal":
        denom = float(np.linalg.norm(b))
        if denom == 0.0:
            raise DegenerateInputError("zero-norm reference: signal-normalized NRMSE undefined")
        return float(np.linalg.norm(a - b) / denom)
    rng = pair_range(a, b)
    if rng == 0.0:
        raise DegenerateInputError("zero dynamic range: range-normalized NRMSE undefined")
    return float(np.sqrt(np.mean((a - b) ** 2)) / rng)


# ---------------------------------------------------------------------------
# rater statistics


def _paired_scores(a, b, name: str):
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidInputError(f"need equal-length 1-D scores, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise InvalidInputError(f"{name} needs n >= 2, got {x.size}")
    return x, y


class TTestResult(NamedTuple):
    t: float
    p: float


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test on score lists of equal length n >= 2.

    Zero-variance differences degenerate to p=1 (zero mean) or p=0
    (systematic offset) instead of dividing by zero.
    """
    x, y = _paired_scores(a, b, "paired t-test")
    n = x.size
    d = x - y
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0)
        return TTestResult(math.copysign(math.inf, mean), 0.0)
    t_stat = mean / (sd / math.sqrt(n))
    p = 2.0 * float(student_t.sf(abs(t_stat), n - 1))
    return TTestResult(t_stat, p)


class BlandAltman(NamedTuple):
    mean_diff: float
    loa_low: float
    loa_high: float
    points: list  # (pair mean, difference) per case, for plotting


def bland_altman(a, b) -> BlandAltman:
    """Mean difference and 1.96-sd limits of agreement, plus plot points."""
    x, y = _paired_scores(a, b, "Bland-Altman")
    d = x - y
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1))
    points = [(float(m), float(v)) for m, v in zip((x + y) / 2.0, d)]
    return BlandAltman(mean, mean - 1.96 * sd, mean + 1.96 * sd, points)


def icc_two_way_single(table) -> float:
    """ICC(2,1): two-way random effects, absolute agreement, single measure."""
    x = np.asarray(table, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 2:
        raise InvalidInputError(f"need an (n, 2) two-rater table, got shape {x.shape}")
    n, k = x.shape
    if n < 2:
        raise InvalidInputError(f"ICC needs at least 2 cases, got {n}")
    grand = x.mean()
    row_means = x.mean(axis=1)
    col_means = x.mean(axis=0)
    ss_rows = k * float(np.sum((row_means - grand) ** 2))
    ss_cols = n * float(np.sum((col_means - grand) ** 2))
    ss_total = float(np.sum((x - grand) ** 2))
    ss_err = ss_total - ss_rows - ss_cols
    msr = ss_rows / (n - 1)
    msc = ss_cols / (k - 1)
    mse = ss_err / ((n - 1) * (k - 1))
    denom = msr + (k - 1) * mse + k * (msc - mse) / n
    if denom == 0.0:
        raise DegenerateInputError("constant rating table: ICC undefined")
    return float((msr - mse) / denom)


def icc_interpretation(value: float) -> str:
    """Conventional reliability label for an ICC value."""
    if value < 0.5:
        return "poor"
    if value < 0.75:
        return "moderate"
    if value < 0.9:
        return "good"
    return "excellent"


# ---------------------------------------------------------------------------
# report assembly


@dataclass(frozen=True)
class CaseMetrics:
    case_id: str
    psnr: float
    ssim: float
    nrmse: float

    def __post_init__(self):
        if not -1.0 <= self.ssim <= 1.0:
            raise InvalidInputError(f"ssim {self.ssim} outside [-1, 1]")
        if self.nrmse < 0:
            raise InvalidInputError(f"nrmse {self.nrmse} negative")


METRIC_NAMES = ("psnr", "ssim", "nrmse")


@dataclass
class MetricsReport:
    cases: list

    def aggregate(self) -> dict:
        """Per-metric mean and sample std over cases (std 0 for one case)."""
        out = {}
        for name in METRIC_NAMES:
            vals = np.array([getattr(c, name) for c in self.cases], dtype=np.float64)
            # an inf case (e.g. PSNR of identical stacks) makes the std nan;
            # both serialize as strings rather than fake numbers
            with np.errstate(invalid="ignore"):
                mean = float(np.mean(vals))
                std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
            out[name] = {"mean": mean, "std": std}
        return out


def evaluate_case(case_id: str, test, ref) -> CaseMetrics:
    # convert once; the metrics take the float64 magnitudes without a copy
    a, b = _magnitude_pair(test, ref)
    return CaseMetrics(case_id=case_id, psnr=psnr(a, b), ssim=ssim(a, b), nrmse=nrmse(a, b))


def build_report(entries) -> MetricsReport:
    """entries: iterable of (case_id, test stack, reference stack)."""
    cases = [evaluate_case(cid, test, ref) for cid, test, ref in entries]
    if not cases:
        raise InvalidInputError("report needs at least one case")
    return MetricsReport(cases)


def _json_num(x: float):
    # JSON has no inf/nan literals; use strings rather than fake numbers.
    # float() turns numpy scalars into plain floats, so repr gives 'inf'.
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def report_to_json(report: MetricsReport) -> str:
    doc = {
        "cases": [
            {
                "id": c.case_id,
                "psnr": _json_num(c.psnr),
                "ssim": _json_num(c.ssim),
                "nrmse": _json_num(c.nrmse),
            }
            for c in report.cases
        ],
        "aggregate": {
            name: {k: _json_num(v) for k, v in stats.items()}
            for name, stats in report.aggregate().items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def write_report(report: MetricsReport, path) -> None:
    atomic_write(path, (report_to_json(report) + "\n").encode("utf-8"))


def load_report(path) -> dict:
    """Parse a report JSON; 'inf'/'nan' strings come back as floats."""

    def back(x):
        return float(x) if isinstance(x, str) else x

    try:
        doc = json.loads(Path(path).read_bytes())
        if not isinstance(doc["cases"], list):
            raise TypeError("cases is not a list")
        doc["cases"] = [{**c, **{n: back(c[n]) for n in METRIC_NAMES}} for c in doc["cases"]]
        doc["aggregate"] = {
            m: {k: back(v) for k, v in stats.items()} for m, stats in doc["aggregate"].items()
        }
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        # bad bytes, JSON or number, or a value of the wrong JSON type
        raise FormatError(f"{path}: not a metrics report: {exc!r}") from exc
    return doc


# ---------------------------------------------------------------------------
# rater score CSV


RATER_COLUMNS = ("case_id", "rater_id", "noise", "sharpness", "detail", "overall")
CRITERIA = ("noise", "sharpness", "detail", "overall")


@dataclass(frozen=True)
class RaterScore:
    case_id: str
    rater_id: str
    noise: int
    sharpness: int
    detail: int
    overall: int

    def __post_init__(self):
        check_fields(self, **dict.fromkeys(CRITERIA, range(1, 6)))


def read_rater_csv(path) -> list:
    """Parse rater scores; errors carry 1-based line numbers."""
    path = Path(path)
    data = path.read_bytes()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} (line {line})") from exc
    if not lines:
        raise FormatError(f"{path}: empty file (line 1)")
    if lines[0].strip() != ",".join(RATER_COLUMNS):
        raise FormatError(
            f"{path}: bad header {lines[0]!r}, expected {','.join(RATER_COLUMNS)!r} (line 1)"
        )
    scores = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 6:
            raise FormatError(f"{path}: expected 6 fields, got {len(parts)} (line {i})")
        try:
            values = [int(p) for p in parts[2:]]
        except ValueError as exc:
            raise FormatError(f"{path}: non-integer score {exc} (line {i})") from exc
        try:
            scores.append(RaterScore(parts[0], parts[1], *values))
        except InvalidInputError as exc:
            raise FormatError(f"{path}: {exc} (line {i})") from exc
    if not scores:
        raise FormatError(f"{path}: no score rows (line {len(lines)})")
    return scores


def write_rater_csv(scores, path) -> None:
    rows = [",".join(RATER_COLUMNS)]
    for s in scores:
        rows.append(f"{s.case_id},{s.rater_id},{s.noise},{s.sharpness},{s.detail},{s.overall}")
    atomic_write(path, ("\n".join(rows) + "\n").encode("utf-8"))
