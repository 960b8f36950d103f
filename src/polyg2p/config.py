"""Run configuration: flat `key = value` files with CLI overrides.

Defaults mirror the reference training setup (2x150 LSTM, batch 64, SGD at
lr 1.0 for 13 epochs, 10k-word language cap with a 10% validation split).
A run manifest written next to each artifact snapshots the resolved config,
input file hashes, and package version; feeding a manifest back in as the
config reproduces the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .model import ModelConfig, TrainingSchedule


@dataclass
class RunConfig:
    # paths
    train_lexicon: str | None = None
    test_lexicon: str | None = None
    inventory: str | None = None
    checkpoint_dir: str = "runs"
    # model
    hidden_size: int = 150
    src_embed: int = 150
    tgt_embed: int = 150
    enc_layers: int = 2
    dec_layers: int = 2
    dropout: float = 0.3
    input_feeding: bool = True
    # schedule
    epochs: int = 13
    batch_size: int = 64
    lr: float = 1.0
    clip: float = 5.0
    lr_decay_factor: float | None = None
    lr_decay_start: int | None = None
    seed: int = 1
    # data handling
    lang_token: bool = True
    language_filter: list[str] | None = None
    beam_width: int | None = None
    val_fraction: float = 0.1
    cap: int = 10000
    min_count: int = 1
    clean: bool = False

    def model_config(self, src_vocab_size: int, tgt_vocab_size: int) -> ModelConfig:
        return ModelConfig(
            src_vocab_size=src_vocab_size,
            tgt_vocab_size=tgt_vocab_size,
            hidden_size=self.hidden_size,
            src_embed=self.src_embed,
            tgt_embed=self.tgt_embed,
            enc_layers=self.enc_layers,
            dec_layers=self.dec_layers,
            dropout=self.dropout,
            input_feeding=self.input_feeding,
        )

    def schedule(self) -> TrainingSchedule:
        return TrainingSchedule(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            clip=self.clip,
            seed=self.seed,
            lr_decay_factor=self.lr_decay_factor,
            lr_decay_start=self.lr_decay_start,
        )


class ConfigError(ValueError):
    pass


def parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def comma_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


@dataclass(frozen=True)
class FieldSpec:
    parse: Callable[[str], object]  # raises ValueError on a malformed value
    optional: bool                  # whether `none` (or an empty value) clears it


_PARSERS = {"int": int, "float": float, "bool": parse_bool, "str": str, "list[str]": comma_list}

# One row per RunConfig field, read by `load_config` and by the CLI's flags.
FIELDS = {
    f.name: FieldSpec(_PARSERS[f.type.removesuffix(" | None")], f.type.endswith(" | None"))
    for f in dataclasses.fields(RunConfig)
}


def _parse_value(name: str, raw: str):
    """Coerce a raw string to the field's type; 'none' clears optional fields."""
    if name not in FIELDS:
        raise ConfigError(f"unknown config key {name!r}")
    spec = FIELDS[name]
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        if not spec.optional:
            raise ConfigError(f"{name}: needs a value, got {raw!r}")
        return None
    try:
        return spec.parse(raw)
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r}") from None


def load_config(path) -> RunConfig:
    """Read `key = value` lines (or a run manifest's JSON) into a RunConfig."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        values = data.get("config", data)
        unknown = set(values) - set(FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cleared = sorted(k for k, v in values.items() if v is None and not FIELDS[k].optional)
        if cleared:
            raise ConfigError(f"{path}: keys that need a value: {cleared}")
        return RunConfig(**values)
    config = RunConfig()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        name, _, value = line.partition("=")
        name = name.strip()
        try:
            setattr(config, name, _parse_value(name, value))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from None
    return config


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Apply non-None override values (already typed) onto a config copy."""
    updated = dataclasses.replace(config)
    for name, value in overrides.items():
        if value is not None:
            setattr(updated, name, value)
    return updated


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command: str, config: RunConfig, inputs: dict[str, str],
                   outputs: list[str]) -> None:
    from . import __version__

    manifest = {
        "command": command,
        "config": dataclasses.asdict(config),
        "inputs": {name: file_sha256(p) for name, p in inputs.items()},
        "outputs": outputs,
        "version": __version__,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
