"""Run configuration: flat `key = value` files with CLI overrides.

Model and schedule fields take their defaults from `ModelConfig` and
`TrainingSchedule` in `model.py` (2x150 LSTM, batch 64, SGD at lr 1.0 for 13
epochs), the split fields from `corpus` (a 10k-word language cap, 10% held
out). A run manifest written next to each artifact snapshots the resolved
config, input file hashes, and package version; feeding a manifest back in
as the config reproduces the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from .corpus import DEFAULT_CAP, DEFAULT_VAL_FRACTION, atomic_write, check_split, open_text
from .model import ModelConfig, TrainingSchedule


@dataclass
class RunConfig:
    # paths
    train_lexicon: str | None = None
    test_lexicon: str | None = None
    inventory: str | None = None
    checkpoint_dir: str = "runs"
    # model
    hidden_size: int = ModelConfig.hidden_size
    src_embed: int = ModelConfig.src_embed
    tgt_embed: int = ModelConfig.tgt_embed
    enc_layers: int = ModelConfig.enc_layers
    dec_layers: int = ModelConfig.dec_layers
    dropout: float = ModelConfig.dropout
    input_feeding: bool = ModelConfig.input_feeding
    # schedule
    epochs: int = TrainingSchedule.epochs
    batch_size: int = TrainingSchedule.batch_size
    lr: float = TrainingSchedule.lr
    clip: float = TrainingSchedule.clip
    lr_decay_factor: float | None = TrainingSchedule.lr_decay_factor
    lr_decay_start: int | None = TrainingSchedule.lr_decay_start
    seed: int = TrainingSchedule.seed
    # data handling
    lang_token: bool = True
    language_filter: list[str] | None = None
    beam_width: int | None = None
    val_fraction: float = DEFAULT_VAL_FRACTION
    cap: int = DEFAULT_CAP
    min_count: int = 1
    clean: bool = False

    def model_config(self, src_vocab_size: int, tgt_vocab_size: int) -> ModelConfig:
        return ModelConfig(src_vocab_size, tgt_vocab_size, **shared_fields(self, ModelConfig))

    def schedule(self) -> TrainingSchedule:
        return TrainingSchedule(**shared_fields(self, TrainingSchedule))

    def check(self) -> None:
        """Raise ValueError naming the first setting that no command can run
        with, through the checks of the code that uses it."""
        self.model_config(1, 1)  # the vocabulary sizes come from the data
        self.schedule()
        check_split(self.cap, self.val_fraction, self.seed)
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")


def shared_fields(source, target_cls) -> dict:
    """`source`'s values of the fields that the dataclass `target_cls` declares too."""
    names = {f.name for f in dataclasses.fields(target_cls)}
    return {f.name: getattr(source, f.name) for f in dataclasses.fields(source) if f.name in names}


# The fields that draw the train/validation split. A checkpoint's meta records
# them, and a run resumed from it takes them from there.
SPLIT_FIELDS = ("seed", "val_fraction", "cap", "language_filter")


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


def _json_raw(name: str, value) -> str:
    """A JSON manifest value as the text of a `key = value` line, so that both
    formats go through `_parse_value`."""
    if value is None:
        return "none"
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return ",".join(value)
    if isinstance(value, (str, int, float)):  # bool is an int
        return str(value)
    raise ConfigError(f"{name}: cannot parse {json.dumps(value)}")


def json_value(name: str, value):
    """Field `name`'s value from JSON (a run manifest or checkpoint meta),
    parsed and checked as the same text in a config file would be."""
    return _parse_value(name, _json_raw(name, value))


def load_config(path) -> RunConfig:
    """Read `key = value` lines (or a run manifest's JSON) into a RunConfig."""
    text = open_text(path).read()
    config = RunConfig()
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None
        values = data.get("config", data)
        if not isinstance(values, dict):
            raise ConfigError(f"{path}: expected a JSON object of config keys")
        for name, value in values.items():
            try:
                setattr(config, name, json_value(name, value))
            except ConfigError as exc:
                raise ConfigError(f"{path}: {exc}") from None
        return config
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
    with atomic_write(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
