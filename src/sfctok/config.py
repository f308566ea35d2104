"""Pipeline configuration and the flat key=value config-file format."""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
from dataclasses import dataclass

from .errors import ConfigError

SEED_ENV_VAR = "SFCTOK_SEED"


@dataclass
class PipelineConfig:
    sample_n: int = 50000  # uniform seeded subsample size
    tokens: int = 256  # output token budget T
    width: int = 256  # feature width d
    window: int = 64  # FFT window length L
    stride: int = 16  # FFT window stride R, at most L
    # retained low-frequency bins; k_low >= window//2+1 keeps every bin, so
    # the default gate is all ones and the enhancer's mix is the identity
    k_low: int = 128
    bits: int = 10  # SFC quantization depth, 1..16
    graph_stride: int = 16  # point-level voting stride r
    graph_window: int = 32  # point-level voting radius W
    graph_k: int = 8  # neighbors kept per superpoint
    tau: float = 0.05  # Sinkhorn temperature
    # Sinkhorn sweep cap and residual tolerance; on large scenes (tens of
    # thousands of superpoints) 5 sweeps stop well above the tolerance, which
    # PipelineResult.sinkhorn_converged reports as False
    sinkhorn_iters: int = 5
    sinkhorn_tol: float = 1e-6
    svd_rank: int = 32
    voxel_cell: float = 0.05  # fallback segmentation cell (meters)
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            if isinstance(v, bool) or not isinstance(v, kind):
                noun = "an integer" if f.type == "int" else "a real number"
                raise ConfigError(f"config field {f.name}={v!r} must be {noun}")
            if f.name == "seed":
                if v < 0:
                    raise ConfigError(f"config field seed={v} must be nonnegative")
            elif not 0 < v < math.inf:  # also rejects NaN
                raise ConfigError(
                    f"config field {f.name}={v} must be positive and finite"
                )
        if self.width < 6:  # the Fourier embedding needs 6 columns per band
            raise ConfigError(f"config field width={self.width} must be at least 6")
        if self.bits > 16:
            raise ConfigError(f"config field bits={self.bits} outside 1..16")
        if self.stride > self.window:
            raise ConfigError(
                f"config field stride={self.stride} exceeds window={self.window}"
            )

    def with_env_seed(self):
        """Return a copy with the seed overridden by SFCTOK_SEED, if set."""
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return self
        return dataclasses.replace(self, seed=_cast(SEED_ENV_VAR, int, env))


def _cast(key, caster, raw):
    try:
        return caster(raw)
    except ValueError:
        raise ConfigError(
            f"{key}={raw!r} is not a valid {caster.__name__}"
        ) from None


def parse_config_file(path) -> dict:
    """Read a flat key=value file; '#' starts a comment, blank lines skipped."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = raw
    return values


def config_from_sources(file_values=None, overrides=None) -> PipelineConfig:
    """Build a config from defaults, then file values, then CLI overrides."""
    fields = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for key, raw in source.items():
            if raw is None:
                continue
            if key not in fields:
                raise ConfigError(f"unknown config key: {key}")
            caster = float if fields[key] in ("float", float) else int
            merged[key] = _cast(key, caster, raw)
    return PipelineConfig(**merged).with_env_seed()
