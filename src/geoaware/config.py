"""Namespaced run configuration: one JSON document covering every module.

Layout::

    {
      "seed": 0,
      "policy": { ... PolicyConfig fields ... },
      "train":  { ... TrainConfig fields ... },
      "geo":    { ... GeoStubConfig fields ... },
      "sim":    { ... SimConfig fields ... }
    }

Every field has a default, unknown keys and mistyped values are rejected at
any level (see ``persist.from_dict``), and a config written with
``dataclasses.asdict`` reads back losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from geoaware.backbones import GeoStubConfig
from geoaware.deskworld.world import SimConfig
from geoaware.errors import ConfigError
from geoaware.persist import from_dict
from geoaware.policy import PolicyConfig
from geoaware.training import TrainConfig


@dataclass
class RunConfig:
    seed: int = 0
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    geo: GeoStubConfig = field(default_factory=GeoStubConfig)
    sim: SimConfig = field(default_factory=SimConfig)

    def validate(self):
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        self.geo.validate()
        self.policy.validate(geo=self.geo)
        self.train.validate()
        for kind in ("head_kind", "backbone_kind"):
            if getattr(self.policy, kind) != getattr(self.train, kind):
                raise ConfigError(
                    f"policy.{kind} {getattr(self.policy, kind)!r} disagrees with train.{kind} "
                    f"{getattr(self.train, kind)!r}; set both"
                )
        self.sim.validate()
        return self


def load_config(path=None) -> tuple[RunConfig, dict]:
    """(RunConfig, raw JSON document) for the file at ``path``; the defaults
    and ``{}`` when no file is given.  The raw document tells a value set in
    the file from a default."""
    if path is None:
        return RunConfig(), {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return from_dict(RunConfig, raw, "top-level").validate(), raw
