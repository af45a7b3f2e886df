"""Run configuration: one JSON file mirroring the typed configs.

Sections model, train, loss, noise, and data are all optional; missing
sections fall back to defaults. Unknown keys anywhere are rejected so typos
fail loudly instead of silently training with defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, InvalidInputError, check_fields
from .network import ModelConfig
from .noisegen import GmapModel
from .training import LossConfig, TrainConfig

SECTIONS = ("model", "train", "loss", "noise", "data")


@dataclass(frozen=True)
class DataConfig:
    """Dataset locations and the validation split override.

    ``gmap_dir`` holds per-stack map files named like the stacks; when absent
    the noise section's synthetic model is materialized at each stack's dims.
    ``val_fraction`` here overrides the train section (the split belongs to
    the data, but the trainer consumes it).
    """

    train_dir: str | None = None
    gmap_dir: str | None = None
    val_fraction: float | None = None

    def __post_init__(self):
        check_fields(self, val_fraction="(0, 1)")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    loss: LossConfig
    noise: GmapModel
    data: DataConfig


def _build_section(name: str, cls, payload: dict):
    if not isinstance(payload, dict):
        raise ConfigError(f"section {name!r} must be an object, got {type(payload).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in section {name!r}")
    try:
        return cls(**payload)
    except InvalidInputError as exc:
        raise ConfigError(f"invalid section {name!r}: {exc}") from exc


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(SECTIONS))
    if unknown:
        raise ConfigError(f"unknown top-level key {unknown[0]!r}")
    model = _build_section("model", ModelConfig, doc.get("model", {}))
    train = _build_section("train", TrainConfig, doc.get("train", {}))
    loss = _build_section("loss", LossConfig, doc.get("loss", {}))
    noise = _build_section("noise", GmapModel, doc.get("noise", {}))
    data = _build_section("data", DataConfig, doc.get("data", {}))
    if data.val_fraction is not None:
        train = dataclasses.replace(train, val_fraction=data.val_fraction)
    return RunConfig(model, train, loss, noise, data)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON, or an int too long to parse
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return run_config_from_dict(doc)
