"""Symmetry-folded hierarchical simulation to paper scale (512K GPUs).

The flat :class:`~repro.network.engine.FabricEngine` is exact but tops
out around 256 hosts; Astral's real deployment is 65,536.  This
package bridges the gap the way ASTRA-sim 2.0 does — hierarchical
composition of analytic and event-driven tiers — plus one structural
observation: packed pod-major placement makes large clusters mostly
*copies*, so detecting pod/block equivalence classes (``symmetry``),
engine-solving one representative per class and replicating
(``fold``), composing the cross-pod tier analytically (``compose``),
and unfolding anything a fault or power cap de-symmetrises back into
exact flat simulation (``refine``) reproduces flat results at a tiny
fraction of the cost — bit-for-bit when the line-rate certificate
holds, tolerance-bounded otherwise.

Every engine sub-simulation — a folded block or pod, each refinement
level, the blast-radius probe — runs on a ``fold.Window``: the one
place a sub-topology is sized, its hosts and fault targets renamed
into it, and its compute power-capped.

Entry point: :class:`HierarchicalRun`, result-compatible with
:class:`~repro.monitoring.multijob.MultiJobRun`.
"""

from .compose import analytic_outcomes, compute_draws, pod_egress_gbps
from .fold import build_flat_fabric
from .presets import SCALE_PRESETS, preset_params, uniform_jobs
from .refine import (REFINE_MODES, FaultEvidence, RefinePlan,
                     plan_refined_group)
from .run import HierarchicalReport, HierarchicalRun, flat_job_configs
from .symmetry import (PodClass, RefinedGroup, SymmetryMap,
                       detect_symmetry, job_shape,
                       line_rate_certificate, pod_signature)
from .virtual import HierJob, PlacedJob, place_jobs

__all__ = [
    "FaultEvidence",
    "HierJob",
    "HierarchicalReport",
    "HierarchicalRun",
    "PlacedJob",
    "PodClass",
    "REFINE_MODES",
    "RefinePlan",
    "RefinedGroup",
    "SCALE_PRESETS",
    "SymmetryMap",
    "plan_refined_group",
    "analytic_outcomes",
    "build_flat_fabric",
    "compute_draws",
    "detect_symmetry",
    "flat_job_configs",
    "job_shape",
    "line_rate_certificate",
    "place_jobs",
    "pod_egress_gbps",
    "pod_signature",
    "preset_params",
    "uniform_jobs",
]
