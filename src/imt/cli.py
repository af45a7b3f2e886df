"""Command-line surface: phantom generation, noise synthesis, training,
denoising, evaluation, and statistics reporting.

Exit codes: 0 success, 1 usage, 2 input or format problem, 3 training
divergence, 4 checkpoint mismatch, 5 external-baseline failure, 6 out of
memory. Output files are written atomically; a failed run leaves no partial
file behind.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import time
from pathlib import Path

import numpy as np

from . import baseline, metrics, network, phantom, training
from .config import load_run_config
from .container import atomic_write
from .errors import (
    BaselineError,
    CheckpointMismatchError,
    ConfigError,
    ImtError,
    NumericalFailureError,
)
from .imgstack import (
    ComplexImageStack,
    load_gmap,
    load_stack,
    power_denormalize,
    power_normalize,
    save_stack,
)
from .noisegen import GmapModel, NoiseSpec, make_gmap, make_training_pair, relative_snr_db

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_DIVERGED = 3
EXIT_CHECKPOINT = 4
EXIT_BASELINE = 5
EXIT_MEMORY = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_phantom(args) -> int:
    paths = phantom.write_phantom_set(
        args.count, args.slices, args.height, args.width, args.seed, args.out_dir
    )
    print(f"wrote {len(paths)} phantom stacks to {args.out_dir}")
    return EXIT_OK


def _parse_gmap_model(text: str) -> GmapModel:
    kind, _, alpha = text.partition(":")
    if kind == "radial_ramp":
        try:
            return GmapModel(kind="radial_ramp", alpha=float(alpha or 1.0))
        except ValueError as exc:  # not a number, or out of range
            raise ConfigError(f"bad radial_ramp alpha {alpha!r}: {exc}") from exc
    if alpha:
        raise ConfigError(f"gmap model {kind!r} takes no parameter")
    return GmapModel(kind=kind)


def cmd_synth(args) -> int:
    clean = load_stack(args.clean)
    if args.gmap:
        gmap = load_gmap(args.gmap)
    else:
        gmap = make_gmap(_parse_gmap_model(args.gmap_model), clean.height, clean.width)
    spec = NoiseSpec(sigma=args.sigma, seed=args.seed)
    noisy, _ = make_training_pair(clean, spec, gmap)
    save_stack(noisy, args.out)
    print(f"relative_snr_db={relative_snr_db(args.sigma):.2f}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    data_dir = args.data or cfg.data.train_dir
    if not data_dir:
        raise ConfigError("no data directory: pass --data or set data.train_dir")
    stack_paths = sorted(Path(data_dir).glob("*.imts"))
    if not stack_paths:
        raise ConfigError(f"no .imts stacks found in {data_dir}")
    dataset = []
    for path in stack_paths:
        stack = load_stack(path)
        if cfg.data.gmap_dir:
            gmap = load_gmap(Path(cfg.data.gmap_dir) / path.name)
        else:
            gmap = cfg.noise
        dataset.append((stack, gmap))
    result = training.train(dataset, cfg.model, cfg.train, cfg.loss, out_dir=args.out)
    print(f"checkpoint={result.checkpoint_path}")
    print(f"log={result.log_path}")
    print(f"best_val_loss={result.best_val_loss!r}")
    return EXIT_OK


def denoise_stack(stack: ComplexImageStack, params, cfg) -> ComplexImageStack:
    """Full-stack inference: normalize, run overlapping depth-T windows
    (50% overlap, averaged where windows meet), denormalize."""
    normalized, state = power_normalize(stack)
    s_total = stack.slices
    depth = min(cfg.slice_depth, s_total)
    step = max(depth // 2, 1)
    starts = list(range(0, s_total - depth + 1, step))
    if starts[-1] != s_total - depth:
        starts.append(s_total - depth)
    acc = np.zeros((s_total, stack.height, stack.width), dtype=np.complex128)
    hits = np.zeros(s_total, dtype=np.float64)
    for s0 in starts:
        chunk = ComplexImageStack(np.ascontiguousarray(normalized.data[s0 : s0 + depth]))
        out = network.forward(chunk, params, cfg, mode="eval")
        acc[s0 : s0 + depth] += out.data
        hits[s0 : s0 + depth] += 1.0
    averaged = (acc / hits[:, None, None]).astype(np.complex64)
    return power_denormalize(ComplexImageStack(averaged), state)


def cmd_denoise(args) -> int:
    t0 = time.perf_counter()
    params, cfg, _ = network.load_checkpoint(args.model)
    network.verify_checkpoint(params, cfg)
    stack = load_stack(args.input)
    result = denoise_stack(stack, params, cfg)
    save_stack(result, args.out)
    print(f"wall_time_s={time.perf_counter() - t0:.3f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    test = load_stack(args.test)
    ref = load_stack(args.ref)
    report = metrics.build_report([(Path(args.test).stem, test, ref)])
    metrics.write_report(report, args.json)
    print(f"report={args.json}")
    return EXIT_OK


def _case_means(scores) -> dict[str, dict[str, float]]:
    """Per-case mean over raters for each criterion."""
    sums: dict[str, dict[str, list]] = {}
    for s in scores:
        bucket = sums.setdefault(s.case_id, {c: [] for c in metrics.CRITERIA})
        for c in metrics.CRITERIA:
            bucket[c].append(getattr(s, c))
    return {
        case: {c: float(np.mean(vals)) for c, vals in per.items()}
        for case, per in sums.items()
    }


def cmd_report(args) -> int:
    a_scores = metrics.read_rater_csv(args.scores[0])
    b_scores = metrics.read_rater_csv(args.scores[1])
    a_means = _case_means(a_scores)
    b_means = _case_means(b_scores)
    if sorted(a_means) != sorted(b_means):
        raise ConfigError(
            f"score files rate different cases: {sorted(a_means)} vs {sorted(b_means)}"
        )
    cases = sorted(a_means)
    want_ttest = args.ttest or not (args.ttest or args.icc)
    want_icc = args.icc or not (args.ttest or args.icc)
    doc: dict = {"cases": len(cases), "criteria": {}}
    ba_rows = []
    for crit in metrics.CRITERIA:
        va = np.array([a_means[c][crit] for c in cases])
        vb = np.array([b_means[c][crit] for c in cases])
        entry: dict = {}
        if want_ttest:
            t = metrics.paired_t_test(va, vb)
            entry["t_test"] = {"t": metrics._json_num(t.t), "p": metrics._json_num(t.p)}
        if want_icc:
            value = metrics.icc_two_way_single(np.column_stack([va, vb]))
            entry["icc"] = {
                "value": metrics._json_num(value),
                "interpretation": metrics.icc_interpretation(value),
            }
        ba = metrics.bland_altman(va, vb)
        entry["bland_altman"] = {
            "mean_diff": metrics._json_num(ba.mean_diff),
            "loa_low": metrics._json_num(ba.loa_low),
            "loa_high": metrics._json_num(ba.loa_high),
        }
        doc["criteria"][crit] = entry
        for case, (mean, diff) in zip(cases, ba.points):
            ba_rows.append(f"{crit},{case},{mean!r},{diff!r}")
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.json:
        atomic_write(args.json, (text + "\n").encode("utf-8"))
    if args.bland_altman:
        rows = "criterion,case_id,mean,diff\n" + "\n".join(ba_rows) + "\n"
        atomic_write(args.bland_altman, rows.encode("utf-8"))
    return EXIT_OK


# perfbench/tracer.py times this name as the span baseline.shrink_wall, so it
# stays; calling through the module keeps the wavelet_shrink_denoise span too.
def _shrink_parallel(stack: ComplexImageStack, sigma: float) -> ComplexImageStack:
    return baseline.wavelet_shrink_denoise(stack, sigma)


def cmd_baseline(args) -> int:
    try:
        command = args.command and shlex.split(args.command)
    except ValueError as exc:  # e.g. an unclosed quote
        raise ConfigError(f"bad --command {args.command!r}: {exc}") from None
    stack = load_stack(args.input)
    sigma = args.sigma if args.sigma is not None else baseline.adjusted_sigma(stack).adjusted
    if args.command:
        out = baseline.external_denoise(stack, command, sigma, timeout=args.timeout)
    else:
        out = _shrink_parallel(stack, sigma)
    save_stack(out, args.out)
    print(f"sigma={sigma:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="imt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate synthetic complex phantom stacks")
    p.add_argument("--count", "-n", type=int, required=True)
    p.add_argument("--slices", type=int, default=8)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("synth", help="add g-factor-shaped noise to a clean stack")
    p.add_argument("--clean", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gmap", help="IMTS g-factor map file")
    group.add_argument(
        "--gmap-model", help="synthetic map: 'uniform' or 'radial_ramp[:alpha]'"
    )
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the denoiser on a stack directory")
    p.add_argument("--config", required=True, help="run-config JSON file")
    p.add_argument("--data", help="directory of .imts stacks (overrides config)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("denoise", help="run a trained model over a stack")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", help="image-quality metrics of a test stack vs reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--json", required=True, help="report output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="reader-study statistics from two score files")
    p.add_argument("--scores", nargs=2, required=True, metavar=("A_CSV", "B_CSV"))
    p.add_argument("--icc", action="store_true")
    p.add_argument("--ttest", action="store_true")
    p.add_argument("--bland-altman", metavar="CSV", help="write per-case points here")
    p.add_argument("--json", help="also write the statistics JSON here")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("baseline", help="wavelet-shrinkage or external baseline denoiser")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sigma", type=float, help="override the adjusted estimate")
    p.add_argument("--command", help="external denoiser command (shell-quoted)")
    p.add_argument("--timeout", type=float, default=300.0)
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericalFailureError as exc:
        print(f"imt: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except CheckpointMismatchError as exc:
        print(f"imt: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except BaselineError as exc:
        print(f"imt: {exc}", file=sys.stderr)
        return EXIT_BASELINE
    except (ImtError, OSError) as exc:
        print(f"imt: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except MemoryError as exc:
        print(f"imt: out of memory (MemoryError): {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
