"""Flat key-value run configuration with dotted namespaces.

A config file is a plain text file of ``key = value`` lines; ``#``
starts a comment.  ``RunConfig`` is the only declaration of the keys:
each dotted key is a field name with its first underscore read as a dot
(``kernel_lengthscale`` -> ``kernel.lengthscale``, ``penalty_r_prime``
-> ``penalty.r_prime``), and the field's
annotation says how its value is parsed and formatted, in a file and on
the command line.  Unknown keys are rejected, every value is
range-checked against the library preconditions before any compute
starts, and the whole thing round-trips through ``serialize_config``.
The paper's full simulation grid ships in ``demos/`` as an ordinary
file of these keys.

The config hash identifies the scientific content of a run: it covers
every key except the execution-only ones (threads, output.dir), so two
runs that may differ only in parallelism or output location share a
hash.

No key restates another: a non-empty ``dgp.table`` is the truth in
place of the sine, and the kernel has unit amplitude, because an
amplitude s gives the estimator at ``penalty.c / s``.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass

from .bootstrap import SCHEMES
from .kernels import KernelSpec
from .simulation import DgpSpec


class ConfigError(ValueError):
    pass


RESOLUTION_GUARD = 20.0  # bands need B >= 20 / alpha


@dataclass(frozen=True)
class RunConfig:
    kernel_nu: float = 3.5
    kernel_lengthscale: float = 1.0
    penalty_r_prime: float = 0.5
    penalty_c: float = 1.0
    partitions: int = 64
    prediction_count: int = 64
    prediction_path: str = ""
    alpha: float = 0.05
    bootstrap_replicates: int = 1000
    bootstrap_scheme: str = "empirical"
    seed: int = 20250801
    output_dir: str = "out"
    dgp_n: int = 4096
    dgp_table: tuple[tuple[float, float], ...] = ()  # DgpSpec.table: (x, f) pairs, () = sine
    grid_p: tuple[int, ...] = (16, 64)
    grid_t: tuple[int, ...] = (4, 64)
    grid_trials: int = 500
    rate_ns: tuple[int, ...] = (1024, 2048, 4096, 8192, 16384)
    rate_reps: int = 20
    diagnostics_truncation: int = 10000
    diagnostics_rhos: tuple[float, ...] = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
    threads: int = 1

    def kernel_spec(self) -> KernelSpec:
        return KernelSpec(nu=self.kernel_nu, lengthscale=self.kernel_lengthscale)


# dotted key -> (field name, annotated type), derived from RunConfig
KEYS = {
    name.replace("_", ".", 1): (name, kind)
    for name, kind in typing.get_type_hints(RunConfig).items()
}
EXECUTION_ONLY_KEYS = ("threads", "output.dir")


def _parse_value(key: str, kind, raw: str):
    try:
        if kind == tuple[tuple[float, float], ...]:
            pairs = []
            for item in raw.split(";"):
                item = item.strip()
                if not item:
                    continue
                left, _, right = item.partition(":")
                pairs.append((float(left), float(right)))
            return tuple(pairs)
        if typing.get_origin(kind) is tuple:  # tuple[int, ...] or tuple[float, ...]
            item_kind = typing.get_args(kind)[0]
            return tuple(item_kind(v.strip()) for v in raw.split(",") if v.strip())
        return kind(raw)  # str, int or float
    except ValueError as exc:
        raise ConfigError(f"could not parse value for {key!r}: {raw!r}") from exc


def _format_value(kind, value) -> str:
    if kind is float:
        return repr(float(value))
    if kind == tuple[int, ...]:
        return ",".join(str(v) for v in value)
    if kind == tuple[float, ...]:
        return ",".join(repr(v) for v in value)
    if kind == tuple[tuple[float, float], ...]:
        return ";".join(f"{x!r}:{f!r}" for x, f in value)
    return str(value)


def parse_config_text(text: str) -> dict:
    """Raw key -> typed value mapping; rejects unknown keys and bad lines."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_value(key, KEYS[key][1], raw)
    return out


def validate_config(cfg: RunConfig) -> RunConfig:
    """Apply module range checks before any compute; raises ConfigError."""
    try:
        cfg.kernel_spec()
        DgpSpec(cfg.dgp_n, cfg.dgp_table)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not (0.5 <= cfg.penalty_r_prime <= 1.0):
        raise ConfigError(f"penalty.r_prime must lie in [1/2, 1], got {cfg.penalty_r_prime}")
    if not (cfg.penalty_c > 0):
        raise ConfigError(f"penalty.c must be positive, got {cfg.penalty_c}")
    if cfg.partitions < 1:
        raise ConfigError(f"partitions must be at least 1, got {cfg.partitions}")
    if cfg.prediction_count < 1:
        raise ConfigError(f"prediction.count must be at least 1, got {cfg.prediction_count}")
    if not (0.0 < cfg.alpha < 1.0):
        raise ConfigError(f"alpha must lie inside (0, 1), got {cfg.alpha}")
    if cfg.bootstrap_replicates < 1:
        raise ConfigError(f"bootstrap.replicates must be positive, got {cfg.bootstrap_replicates}")
    if cfg.bootstrap_scheme not in SCHEMES:
        raise ConfigError(f"bootstrap.scheme must be one of {SCHEMES}, got {cfg.bootstrap_scheme!r}")
    if not cfg.grid_p or any(p < 1 for p in cfg.grid_p):
        raise ConfigError(f"grid.p must be positive integers, got {cfg.grid_p}")
    if not cfg.grid_t or any(t < 1 for t in cfg.grid_t):
        raise ConfigError(f"grid.t must be positive integers, got {cfg.grid_t}")
    for key, values in (("grid.p", cfg.grid_p), ("grid.t", cfg.grid_t)):
        if len(set(values)) != len(values):
            # the T cells of a row share trials, so a repeat would count them twice
            raise ConfigError(f"{key} has repeated values, got {values}")
    if cfg.grid_trials < 1:
        raise ConfigError(f"grid.trials must be at least 1, got {cfg.grid_trials}")
    if not cfg.rate_ns or any(n < 1 for n in cfg.rate_ns):
        raise ConfigError(f"rate.ns must be positive integers, got {cfg.rate_ns}")
    if cfg.rate_reps < 1:
        raise ConfigError(f"rate.reps must be positive, got {cfg.rate_reps}")
    if cfg.diagnostics_truncation < 1:
        raise ConfigError(f"diagnostics.truncation must be positive, got {cfg.diagnostics_truncation}")
    if any(r <= 0 for r in cfg.diagnostics_rhos):
        raise ConfigError(f"diagnostics.rhos must be positive, got {cfg.diagnostics_rhos}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
    if cfg.threads < 1:
        raise ConfigError(f"threads must be at least 1, got {cfg.threads}")
    # last, so a range check above that also fails keeps its message;
    # abs(v) < inf is false for nan and for either infinity
    for key, (name, kind) in KEYS.items():
        if kind in (float, tuple[float, ...]):
            value = getattr(cfg, name)
            if not all(abs(v) < float("inf") for v in ((value,) if kind is float else value)):
                raise ConfigError(f"{key} must be finite, got {value}")
    return cfg


def make_config(raw: dict) -> RunConfig:
    """Build and validate a RunConfig from a dotted-key mapping."""
    kwargs = {}
    for key, value in raw.items():
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}")
        kwargs[KEYS[key][0]] = value
    return validate_config(RunConfig(**kwargs))


def _config_lines(cfg: RunConfig, skip=()) -> list:
    """``key = value`` lines for every key not in skip, sorted by key."""
    return [
        f"{key} = {_format_value(kind, getattr(cfg, name))}"
        for key, (name, kind) in sorted(KEYS.items())
        if key not in skip
    ]


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: every key, sorted, one per line."""
    return "\n".join(_config_lines(cfg)) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Short digest of the scientific config (execution keys excluded)."""
    text = "\n".join(_config_lines(cfg, skip=EXECUTION_ONLY_KEYS))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
