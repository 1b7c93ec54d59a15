"""Run configuration: one JSON file covering arch, front-end, training,
decision rule, and sweep grid.

Sections map one-to-one onto the dataclasses they configure. Unknown keys
anywhere are rejected so typos fail loudly instead of silently using a
default. Command-line flags override file values; the fully resolved
configuration is written next to every artifact a command produces.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from . import arch, data, evaluation, frontend, runtime, training


class ConfigError(ValueError):
    """Malformed configuration file or overrides."""


SECTIONS = ("arch", "frontend", "train", "rule", "sweep", "data")

_SECTION_FIELDS = {
    "arch": {f.name for f in dataclasses.fields(arch.ArchSpec)},
    "frontend": {f.name for f in dataclasses.fields(frontend.FrontendConfig)},
    "train": {f.name for f in dataclasses.fields(training.TrainConfig)},
    "rule": {f.name for f in dataclasses.fields(runtime.DecisionRule)},
    "sweep": {"deltas"},
    "data": {"classes", "per_class", "difficulty", "seed"},
}


def _check_keys(section: str, d: dict) -> dict:
    unknown = set(d) - _SECTION_FIELDS[section]
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section {section!r}; "
            f"allowed: {sorted(_SECTION_FIELDS[section])}"
        )
    return dict(d)


def load_config_file(path) -> dict:
    """Parse and structurally validate a JSON config file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be an object")
    unknown = set(raw) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"{p}: unknown section(s) {sorted(unknown)}; allowed: {list(SECTIONS)}")
    for name, section in raw.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{p}: section {name!r} must be an object")
        _check_keys(name, section)
    return raw


def merge(base: dict, overrides: dict) -> dict:
    """Per-key override of config sections; None values are ignored."""
    out = {name: dict(section) for name, section in base.items()}
    for name, section in overrides.items():
        if not section:
            continue
        _check_keys(name, {k: v for k, v in section.items() if v is not None})
        dst = out.setdefault(name, {})
        for k, v in section.items():
            if v is not None:
                dst[k] = v
    return out


def resolve(cfg: dict) -> dict:
    """Build typed objects from a merged config dict.

    Returns {"arch": ArchSpec | None, "frontend": FrontendConfig,
    "train": TrainConfig, "rule": DecisionRule, "deltas": tuple,
    "data": dict, "resolved": plain-dict snapshot}.
    """
    fe_kwargs = _check_keys("frontend", cfg.get("frontend", {}))
    try:
        fe = frontend.FrontendConfig(**fe_kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"frontend config: {e}") from e

    arch_section = _check_keys("arch", cfg.get("arch", {}))
    spec = None
    if arch_section:
        if "input_shape" not in arch_section:
            t = frontend.frame_count(int(round(data.CLIP_SECONDS * fe.sample_rate)), fe)
            arch_section["input_shape"] = (t, fe.n_mels, 1)
        missing = {"family", "widths", "blocks", "n_classes"} - set(arch_section)
        if missing:
            raise ConfigError(f"arch config missing {sorted(missing)}")
        try:
            spec = arch.ArchSpec(**{k: _tupled(v) for k, v in arch_section.items()})
        except (TypeError, ValueError) as e:
            raise ConfigError(f"arch config: {e}") from e

    train_kwargs = _check_keys("train", cfg.get("train", {}))
    if "exit_weights" in train_kwargs and train_kwargs["exit_weights"] is not None:
        train_kwargs["exit_weights"] = tuple(train_kwargs["exit_weights"])
    try:
        tr = training.TrainConfig(**train_kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"train config: {e}") from e

    rule_kwargs = _check_keys("rule", cfg.get("rule", {}))
    try:
        rule = runtime.DecisionRule(**rule_kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"rule config: {e}") from e

    sweep_kwargs = _check_keys("sweep", cfg.get("sweep", {}))
    deltas = tuple(float(d) for d in sweep_kwargs.get("deltas", evaluation.DEFAULT_DELTAS))

    data_kwargs = _check_keys("data", cfg.get("data", {}))

    resolved = {
        "arch": spec.to_dict() if spec else None,
        "frontend": dataclasses.asdict(fe),
        "train": tr.to_dict(),
        "rule": dataclasses.asdict(rule),
        "sweep": {"deltas": list(deltas)},
        "data": data_kwargs,
    }
    return {
        "arch": spec,
        "frontend": fe,
        "train": tr,
        "rule": rule,
        "deltas": deltas,
        "data": data_kwargs,
        "resolved": resolved,
    }


def _tupled(v):
    return tuple(v) if isinstance(v, list) else v


def write_resolved(resolved: dict, artifact_path) -> Path:
    """Write the effective config next to an artifact; returns the path."""
    p = Path(artifact_path)
    out = p.parent / (p.name + ".config.json")
    out.write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    return out
