"""Session configuration: one JSON-pure document per twin.

A :class:`TwinConfig` is everything a session's world depends on, in
the same spirit as ``ServingScenario`` and farm ``TaskSpec`` params:
plain ints/floats/strings so the document round-trips through
``canonical_json`` unchanged.  The config (not any live object) is
what the action log's replay contract quantifies over —
``replay(config, action_log)`` must land on the live session's digest
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional, Union

from ..hierarchy.presets import SCALE_PRESETS, preset_params
from ..topology.astral import NAMED_SCALES, AstralParams

__all__ = ["TwinConfig", "SCALES", "KINDS"]

#: laptop scales map to ``AstralParams`` classmethods, paper scales to
#: the hierarchy presets.
SCALES = NAMED_SCALES + SCALE_PRESETS
KINDS = ("cluster", "serving")

_DIM_FIELDS = ("pods", "blocks_per_pod", "hosts_per_block",
               "gpus_per_host", "aggs_per_group", "cores_per_group")


@dataclass(frozen=True)
class TwinConfig:
    """Everything one twin session's world depends on.

    ``kind="cluster"`` wraps a live fabric + scheduler + resilience
    pipeline; ``kind="serving"`` wraps a diurnal serving day whose
    report is recomputed when operator actions change the contract.
    """

    kind: str = "cluster"
    scale: str = "small"
    seed: Union[int, str] = 0
    #: always ``None``: kept only so the wire format (and every digest
    #: that hashes it) is unchanged.  Pick a fill kernel with
    #: :func:`repro.network.solver.use_backend` around the session.
    solver: Optional[str] = None
    # -- cluster-kind knobs ----------------------------------------------
    jobs: int = 24
    policy: str = "topology"
    probe_interval_s: float = 30.0
    dampening_s: float = 10.0
    enforce_cap: bool = True
    host_kw: float = 10.0
    #: cap-boundary planting horizon for the live scheduler.
    horizon_s: float = 7 * 86400.0
    # -- serving-kind knobs ----------------------------------------------
    #: ``ServingScenario`` field overrides (JSON-pure).
    serving: Optional[Dict[str, Any]] = field(default=None)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown twin kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if self.scale not in SCALES:
            raise ValueError(f"unknown twin scale {self.scale!r}; "
                             f"expected one of {SCALES}")
        if self.solver is not None:
            raise ValueError(
                f"TwinConfig.solver must be None, got {self.solver!r}; "
                f"pick a fill kernel with "
                f"repro.network.solver.use_backend")
        if self.jobs < 0:
            raise ValueError(f"jobs cannot be negative: {self.jobs}")
        if self.probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive: "
                             f"{self.probe_interval_s}")
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive: "
                             f"{self.horizon_s}")
        if self.host_kw <= 0:
            raise ValueError(f"host_kw must be positive: {self.host_kw}")
        if self.serving is not None \
                and not isinstance(self.serving, dict):
            raise ValueError("serving overrides must be an object")

    # -- derived ---------------------------------------------------------
    def astral_params(self) -> AstralParams:
        if self.scale in SCALE_PRESETS:
            return preset_params(self.scale)
        return AstralParams.named(self.scale)

    def scenario_params(self) -> Dict[str, Any]:
        """A ``ServingScenario.from_params`` document for this config.

        Laptop scales ship explicit ``dims``; paper scales name the
        hierarchy preset the serving stack already understands.
        """
        params: Dict[str, Any] = {"seed": self.seed}
        if self.scale in SCALE_PRESETS:
            params["preset"] = self.scale
        else:
            shape = self.astral_params()
            params["preset"] = None
            params["dims"] = {name: getattr(shape, name)
                              for name in _DIM_FIELDS}
        params.update(self.serving or {})
        return params

    # -- wire format -----------------------------------------------------
    def to_params(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_params(cls, params: Dict[str, Any]) -> "TwinConfig":
        if not isinstance(params, dict):
            raise ValueError("twin config must be an object, got "
                             f"{type(params).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ValueError(f"twin config has unknown keys {unknown}; "
                             f"expected a subset of {sorted(known)}")
        return cls(**params)
