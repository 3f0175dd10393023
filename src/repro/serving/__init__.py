"""Planetary-scale inference serving on the digital twin.

The paper's tidal power story (Figure 16) closed end to end: diurnal
regional demand (:mod:`.trace`), prefill/decode disaggregation across
pod pairs (:mod:`.pools`), KV-transfer traffic contending with training
collectives on one fabric clock (:mod:`.cosim`), a tidal autoscaler
whose residual power budget preempts/admits training jobs through the
cluster scheduler (:mod:`.autoscale`), and TTFT/TPOT/goodput SLOs over
a symmetry-folded request population (:mod:`.run`, :mod:`.report`).

Entry points: ``repro serve`` (CLI), the ``serving-run`` farm kind, and
the ``serving`` validation profile.
"""

from .autoscale import (
    AutoscaleConfig,
    AutoscalePlan,
    BucketPlan,
    TidalAutoscaler,
)
from .cosim import CosimConfig, CosimResult, KvCosim
from .pools import (
    PoolPlan,
    SlicePlacement,
    place_slice,
    plan_pools,
    slice_params,
)
from .report import ServingReport, weighted_percentile
from .run import ServingRun, ServingScenario
from .trace import (
    DEFAULT_REGIONS,
    RegionProfile,
    RequestTrace,
    TraceBucket,
    TraceConfig,
)

__all__ = [
    "AutoscaleConfig",
    "AutoscalePlan",
    "BucketPlan",
    "CosimConfig",
    "CosimResult",
    "DEFAULT_REGIONS",
    "KvCosim",
    "PoolPlan",
    "RegionProfile",
    "RequestTrace",
    "ServingReport",
    "ServingRun",
    "ServingScenario",
    "SlicePlacement",
    "TidalAutoscaler",
    "TraceBucket",
    "TraceConfig",
    "place_slice",
    "plan_pools",
    "slice_params",
    "weighted_percentile",
]
