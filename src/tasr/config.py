"""Pipeline configuration: every scalar knob in one record.

Weight groups must each sum to 1: (w1, w2) for the two taxonomy levels,
(wh, wt) for head/tail slots, (lh, lr, lt) for the semantic components.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, get_type_hints

from tasr.errors import ConfigError, RangeViolation, WeightSumViolation, read_json

WEIGHT_SUM_TOL = 1e-9

HOP_SCOPES = ("current", "chain")
TYPING_MODES = ("retrieval", "pure")


@dataclass(frozen=True)
class PipelineConfig:
    """All pipeline hyperparameters with their default values, checked when built."""

    k0: int = 10                 # dense-retrieval pool size
    theta: float = 0.3           # document score threshold
    alpha: float = 0.5           # structural vs semantic mix
    gamma: float = 0.5           # max vs mean aggregation mix
    top_t: int = 3               # sub-queries kept in the mean aggregation
    w1: float = 0.5              # L1 type-match weight
    w2: float = 0.5              # L2 type-match weight
    wh: float = 0.5              # head-slot structural weight
    wt: float = 0.5              # tail-slot structural weight
    lh: float = 0.3              # head semantic weight
    lr: float = 0.3              # relation semantic weight
    lt: float = 0.4              # tail semantic weight
    n_l1_candidates: int = 10    # typing: L1 retrieval width
    l1_keep: int = 3             # typing: L1 labels the LLM keeps
    m_l2_candidates: int = 20    # typing: L2 retrieval width per branch
    hop_scope: str = "current"   # "current": score hop i with s_i only; "chain": all sub-queries
    typing_mode: str = "retrieval"  # "retrieval": candidate-pruned selection; "pure": full label lists

    def __post_init__(self) -> None:
        validate_config(self)

    def with_overrides(self, **overrides: Any) -> "PipelineConfig":
        """Return a copy with non-None overrides applied; the copy is checked when built."""
        return dataclasses.replace(self, **{k: v for k, v in overrides.items() if v is not None})


_INT_FIELDS = tuple(name for name, kind in get_type_hints(PipelineConfig).items() if kind is int)
_UNIT_FIELDS = ("theta", "alpha", "gamma")
_WEIGHT_GROUPS = {
    "w1+w2": ("w1", "w2"),
    "wh+wt": ("wh", "wt"),
    "lh+lr+lt": ("lh", "lr", "lt"),
}


def validate_config(cfg: PipelineConfig) -> PipelineConfig:
    """Check all range and weight-sum invariants; return cfg unchanged if valid."""
    for name in _INT_FIELDS:
        value = getattr(cfg, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise RangeViolation(name, f"must be a positive integer, got {value!r}")
    for name in _UNIT_FIELDS:
        value = _number(cfg, name)
        if not 0.0 <= value <= 1.0:
            raise RangeViolation(name, f"must lie in [0, 1], got {value!r}")
    for group, fields in _WEIGHT_GROUPS.items():
        values = [_number(cfg, f) for f in fields]
        for f, v in zip(fields, values):
            if v < 0.0:
                raise RangeViolation(f, f"must be non-negative, got {v!r}")
        total = sum(values)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise WeightSumViolation(group, total)
    if cfg.hop_scope not in HOP_SCOPES:
        raise RangeViolation("hop_scope", f"must be one of {HOP_SCOPES}, got {cfg.hop_scope!r}")
    if cfg.typing_mode not in TYPING_MODES:
        raise RangeViolation("typing_mode", f"must be one of {TYPING_MODES}, got {cfg.typing_mode!r}")
    return cfg


def _number(cfg: PipelineConfig, name: str) -> float:
    value = getattr(cfg, name)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # a comparison, unlike math.isfinite, takes any int and is False for NaN
    if not number or not abs(value) <= sys.float_info.max:
        raise RangeViolation(name, f"must be a finite number, got {value!r}")
    return float(value)


def _key_values(text: str) -> dict[str, Any]:
    """Each value parsed as its field's type; an unknown key keeps its text for the
    caller's unknown-key check."""
    kinds = get_type_hints(PipelineConfig)
    values: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RangeViolation("config", f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        kind = kinds.get(key, str)
        try:
            values[key] = kind(raw)
        except ValueError as exc:
            raise RangeViolation(key, f"line {lineno}: cannot parse {raw!r}") from exc
    return values


def load_config(path: str | Path) -> PipelineConfig:
    """Load a config file: either a JSON object or flat ``key=value`` lines.

    Unknown keys are rejected so typos never silently fall back to defaults.
    """
    try:
        values = read_json(path, ConfigError, "config", lambda value: value)
    except ConfigError as exc:
        if not isinstance(exc.__cause__, json.JSONDecodeError):
            raise
        values = _key_values(exc.__cause__.doc)  # not JSON: its text as key=value lines
    if not isinstance(values, dict):
        raise RangeViolation("config", "JSON config must be an object")
    unknown = sorted(set(values) - {f.name for f in dataclasses.fields(PipelineConfig)})
    if unknown:
        raise RangeViolation("config", f"unknown keys: {', '.join(unknown)}")
    return PipelineConfig(**values)
