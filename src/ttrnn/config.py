"""Run configuration: flat key=value files and override handling."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError, DataError
from .features import TENSOR_DIMS_5
from .files import reading
from .neural import TrainConfig, config_ranks
from .rng import stream_rng  # re-exported: callers use it as config.stream_rng
from .tensor import check_shape
from .ttformat import _ints


@dataclass
class RunConfig:
    """Everything a pipeline run needs, resolvable from file + CLI overrides."""

    data_manifest: str = ""  # empty: generate a synthetic panel instead
    synth_days: int = 600
    signal_strength: float = 0.0
    target: str = "FX6"
    split: float = 0.9
    seq_len: int = 10
    epochs: int = 20
    batch_size: int = 66
    learning_rate: float = 1e-5
    ranks: str = "6"  # scalar, interior list, or full (1, ..., 1) list
    hidden_dims: str = "4,4,4,4,4"
    out_dir: str = "runs/out"
    seed: int = 0

    def input_dims(self) -> tuple[int, ...]:
        """The input tensor modes: the feature layout fixes them."""
        return TENSOR_DIMS_5

    def hidden_tensor_dims(self) -> tuple[int, ...]:
        return _dims(self.hidden_dims, "hidden_dims")

    def rank_tuple(self) -> tuple[int, ...]:
        """Full rank tuple (1, r_1, ..., r_{N-1}, 1) resolved against the mode count."""
        n = len(self.hidden_tensor_dims())
        parts = _dims(self.ranks, "ranks")
        if len(parts) == 1:
            full = (1,) + (parts[0],) * (n - 1) + (1,)
        elif len(parts) == n - 1:
            full = (1,) + parts + (1,)
        elif len(parts) == n + 1:
            full = parts
        else:
            raise ConfigError(
                f"ranks {self.ranks!r} has {len(parts)} entries; expected 1, "
                f"{n - 1} (interior) or {n + 1} (full)"
            )
        return config_ranks(full, n)

    def train_config(self) -> TrainConfig:
        """The SGD settings of this run, as :func:`neural.train` takes them."""
        return TrainConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seq_len=self.seq_len,
            ranks=self.rank_tuple(),
            seed=self.seed,
        )

    def validate(self) -> "RunConfig":
        """Check the run; the SGD settings are checked by :meth:`TrainConfig.validate`."""
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {self.split}")
        if len(self.hidden_tensor_dims()) != len(TENSOR_DIMS_5):
            raise ConfigError(
                f"hidden_dims must have one mode per input mode of {TENSOR_DIMS_5}"
            )
        self.train_config().validate()
        if self.synth_days < 1:
            raise ConfigError(f"synth_days must be >= 1, got {self.synth_days}")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ConfigError("signal_strength must be in [0, 1]")
        return self


def _dims(text: str, what: str) -> tuple[int, ...]:
    try:
        return check_shape(_ints(text))
    except ValueError:  # ShapeError included
        raise ConfigError(f"{what} must be positive integers, got {text!r}") from None


# field type -> converter; each f.type is a string under ``from __future__ import annotations``
_CONVERTERS = {f.name: {"int": int, "float": float, "str": str}[f.type] for f in fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment, blank lines ignored."""
    values, first_line = {}, {}
    try:
        with reading(path) as f:
            lines = f.readlines()
    except DataError as exc:  # not UTF-8 text
        raise ConfigError(str(exc)) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} (first on line {first_line[key]})"
            )
        first_line[key] = lineno
        values[key] = val.strip()
    return values


def build_config(overrides: dict) -> RunConfig:
    """The validated RunConfig of ``key: text`` settings (flags or file); None keeps the default."""
    cfg = RunConfig()
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in _CONVERTERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, _CONVERTERS[key](val))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None
    return cfg.validate()
