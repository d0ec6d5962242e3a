"""Run configuration: flat key=value files, override handling, seeded RNG streams."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .ttformat import InvalidRank, check_ranks


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent generator for a named consumer of the run seed.

    Streams are keyed by (seed, crc32(name)) so adding a new consumer never
    perturbs the draws of existing ones.
    """
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


def config_ranks(ranks, n_modes: int) -> tuple[int, ...]:
    """:func:`ttformat.check_ranks` for a setting: a bad tuple raises ConfigError."""
    try:
        return check_ranks(ranks, n_modes)
    except InvalidRank as exc:
        raise ConfigError(f"bad ranks: {exc}") from None


FEATURE_TENSOR_DIMS = (2, 2, 5, 6, 4)


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
    in_dims: str = "2,2,5,6,4"
    hidden_dims: str = "4,4,4,4,4"
    out_dir: str = "runs/out"
    seed: int = 0

    def input_dims(self) -> tuple[int, ...]:
        return _dims(self.in_dims, "in_dims")

    def hidden_tensor_dims(self) -> tuple[int, ...]:
        return _dims(self.hidden_dims, "hidden_dims")

    def rank_tuple(self) -> tuple[int, ...]:
        """Full rank tuple (1, r_1, ..., r_{N-1}, 1) resolved against the mode count."""
        n = len(self.hidden_tensor_dims())
        try:
            parts = [int(x) for x in str(self.ranks).split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad ranks {self.ranks!r}: {exc}") from None
        if len(parts) == 1:
            full = (1,) + (parts[0],) * (n - 1) + (1,)
        elif len(parts) == n - 1:
            full = (1,) + tuple(parts) + (1,)
        elif len(parts) == n + 1:
            full = tuple(parts)
        else:
            raise ConfigError(
                f"ranks {self.ranks!r} has {len(parts)} entries; expected 1, "
                f"{n - 1} (interior) or {n + 1} (full)"
            )
        return config_ranks(full, n)

    def validate(self) -> "RunConfig":
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {self.split}")
        if self.input_dims() != FEATURE_TENSOR_DIMS:
            raise ConfigError(
                f"in_dims {self.in_dims!r} does not match the feature tensor "
                f"shape {FEATURE_TENSOR_DIMS}"
            )
        if len(self.hidden_tensor_dims()) != len(self.input_dims()):
            raise ConfigError("hidden_dims must have the same mode count as in_dims")
        self.rank_tuple()
        for name in ("synth_days", "seq_len", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ConfigError("signal_strength must be in [0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self


def _dims(text: str, what: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from None
    if not dims or min(dims) < 1:
        raise ConfigError(f"{what} must be positive integers, got {text!r}")
    return dims


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment, blank lines ignored."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge config-file values with CLI overrides (overrides win) and validate."""
    merged: dict = {}
    for source in (file_values or {}), (overrides or {}):
        for key, val in source.items():
            if val is None:
                continue
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = val
    cfg = RunConfig()
    for key, val in merged.items():
        kind = _FIELD_TYPES[key]
        try:
            if kind in ("int", int):
                setattr(cfg, key, int(val))
            elif kind in ("float", float):
                setattr(cfg, key, float(val))
            else:
                setattr(cfg, key, str(val))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None
    return cfg.validate()
