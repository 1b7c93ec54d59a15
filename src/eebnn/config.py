"""Run configuration: one JSON file covering arch, front-end, training,
decision rule, sweep grid and synthetic dataset.

Sections map one-to-one onto the dataclasses they configure. Unknown keys
anywhere are rejected so typos fail loudly instead of silently using a
default. Command-line flags override file values; the fully resolved
configuration, every default filled in, is written next to every artifact a
command produces and re-runs that command when passed back as its config.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from pathlib import Path

from . import arch, data, evaluation, frontend, runtime, training


class ConfigError(ValueError):
    """Malformed configuration file or overrides."""


@dataclasses.dataclass(frozen=True)
class SweepGrid:
    """The thresholds `sweep` evaluates."""

    deltas: tuple[float, ...] = evaluation.DEFAULT_DELTAS

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))


@dataclasses.dataclass(frozen=True)
class SynthData:
    """The synthetic dataset a run uses unless --manifest names real clips."""

    classes: int = 6
    per_class: int = 20
    difficulty: str | dict[str, float] = "mixed"  # easy | hard | mixed, or tier weights
    seed: int = 0

    def __post_init__(self):
        data.synth_tier_counts(self.classes, self.per_class, self.difficulty)


# section name -> the dataclass it configures, one key per field
SECTIONS = {
    "arch": arch.ArchSpec,
    "frontend": frontend.FrontendConfig,
    "train": training.TrainConfig,
    "rule": runtime.DecisionRule,
    "sweep": SweepGrid,
    "data": SynthData,
}
_SECTION_FIELDS = {name: {f.name for f in dataclasses.fields(cls)} for name, cls in SECTIONS.items()}


def _check_keys(section: str, d: dict) -> dict:
    unknown = set(d) - _SECTION_FIELDS[section]
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section {section!r}; "
            f"allowed: {sorted(_SECTION_FIELDS[section])}"
        )
    return dict(d)


def load_config_file(path) -> dict:
    """Parse and structurally validate a JSON config file; a null or empty section is absent."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"{p}: not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be an object")
    unknown = set(raw) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"{p}: unknown section(s) {sorted(unknown)}; allowed: {list(SECTIONS)}")
    raw = {name: section for name, section in raw.items() if section not in (None, {})}
    for name, section in raw.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{p}: section {name!r} must be an object")
        _check_keys(name, section)
    return raw


def merge(base: dict, overrides: dict) -> dict:
    """Per-key override of config sections; None values are ignored."""
    out = {name: dict(section) for name, section in base.items()}
    for name, section in overrides.items():
        given = _check_keys(name, {k: v for k, v in section.items() if v is not None})
        if given:
            out.setdefault(name, {}).update(given)
    return out


def _fits(value, hint) -> bool:
    """Whether a JSON or flag value has the annotated type; an int passes as a float.

    A boolean is never a number here, though Python's bool subclasses int,
    and NaN or an infinity is no value at all, though JSON and argparse
    parse them as floats.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_fits(value, h) for h in args)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items())
    if hint in (int, float):
        if isinstance(value, float):  # only a float: math.isfinite overflows on a huge int
            return hint is float and math.isfinite(value)
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


def _build(section: str, kwargs: dict):
    """The section's dataclass from its keys; a value it rejects is a ConfigError naming the section."""
    cls = SECTIONS[section]
    hints = typing.get_type_hints(cls)
    for key, value in _check_keys(section, kwargs).items():
        if not _fits(value, hints[key]):
            expected = hints[key].__name__ if type(hints[key]) is type else hints[key]
            raise ConfigError(f"{section} config: {key} must be {expected}, got {value!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{section} config: {e}") from e


def resolve(cfg: dict) -> dict:
    """Build typed objects from a merged config dict.

    Returns {"arch": ArchSpec | None, "frontend": FrontendConfig,
    "train": TrainConfig, "rule": DecisionRule, "deltas": tuple,
    "data": dict | None, "resolved": plain-dict snapshot}; `data` is None
    without a `data` section (a manifest run, or a command reading no dataset).
    """
    fe = _build("frontend", cfg.get("frontend", {}))
    arch_section = _check_keys("arch", cfg.get("arch", {}))
    spec = None
    if arch_section:
        if "input_shape" not in arch_section:
            t = frontend.frame_count(int(round(data.CLIP_SECONDS * fe.sample_rate)), fe)
            arch_section["input_shape"] = (t, fe.n_mels, 1)
        missing = {"family", "widths", "blocks", "n_classes"} - set(arch_section)
        if missing:
            raise ConfigError(f"arch config missing {sorted(missing)}")
        spec = _build("arch", arch_section)
    tr = _build("train", cfg.get("train", {}))
    rule = _build("rule", cfg.get("rule", {}))
    sweep = _build("sweep", cfg.get("sweep", {}))
    synth = None if cfg.get("data") is None else _build("data", cfg["data"])
    if synth is not None and fe.sample_rate != data.SAMPLE_RATE:
        raise ConfigError(f"data config: synthetic clips are {data.SAMPLE_RATE} Hz, "
                          f"but frontend.sample_rate is {fe.sample_rate}")
    built = {"arch": spec, "frontend": fe, "train": tr, "rule": rule, "sweep": sweep, "data": synth}
    resolved = {name: None if obj is None else dataclasses.asdict(obj) for name, obj in built.items()}
    return {"arch": spec, "frontend": fe, "train": tr, "rule": rule, "deltas": sweep.deltas,
            "data": resolved["data"], "resolved": resolved}


def write_resolved(resolved: dict, artifact_path) -> Path:
    """Write the effective config next to an artifact; returns the path."""
    p = Path(artifact_path)
    out = p.parent / (p.name + ".config.json")
    out.write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    return out
