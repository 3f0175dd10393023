"""`HierarchicalRun`: the folded simulator behind MultiJobRun's surface.

Consumers that iterate ``Dict[str, JobOutcome]`` — cluster reports,
resilience campaigns, seer calibration — work unchanged: ``run()``
returns the same mapping :class:`MultiJobRun.run` does, with every job
present whether it was engine-simulated, replicated from a fold
representative, refined flat, or composed analytically.

``flat_job_configs`` is the bridge the differential harness uses: it
produces the *exact* flat-run configs (same placement, same power-cap
compute scaling arithmetic) for a scenario, so flat-vs-folded
comparisons are apples to apples down to the float operations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..monitoring.faults import FaultSpec
from ..monitoring.jobsim import JobConfig
from ..monitoring.multijob import JobOutcome
from ..topology.astral import AstralParams
from .compose import analytic_outcomes, scaled_compute_s
from .fold import EngineRunner, _config_for, fold_pod_class
from .refine import REFINE_MODES, RefinePlan, run_refined_groups
from .symmetry import SymmetryMap, detect_symmetry
from .virtual import HierJob, place_jobs

__all__ = ["HierarchicalReport", "HierarchicalRun", "flat_job_configs"]


def _level_histogram(plans: Sequence[RefinePlan]) -> Dict[str, int]:
    levels: Dict[str, int] = {}
    for plan in plans:
        levels[plan.level] = levels.get(plan.level, 0) + 1
    return levels


def flat_job_configs(params: AstralParams, jobs: Sequence[HierJob],
                     pod_power_caps: Optional[Dict[int, float]] = None
                     ) -> List[JobConfig]:
    """Flat-run configs for a hierarchical scenario, placement-ordered."""
    caps = dict(pod_power_caps or {})
    return [_config_for(placed, placed.host_names(),
                        scaled_compute_s(placed.job, placed.pods, caps))
            for placed in place_jobs(params, list(jobs))]


@dataclass
class HierarchicalReport:
    """What the fold did and what it produced.

    ``to_dict`` is deterministic (no wall-clock, no ids) so farm
    workers reproduce it bit-for-bit; ``elapsed_s`` lives only on the
    object.  Per-job detail is capped at ``max_jobs`` entries in name
    order — paper-scale scenarios carry thousands of jobs and the
    aggregates already summarise them.
    """

    total_gpus: int = 0
    n_pods: int = 0
    n_jobs: int = 0
    n_job_hosts: int = 0
    n_pod_classes: int = 0
    n_refined_groups: int = 0
    n_refined_pods: int = 0
    n_analytic_jobs: int = 0
    n_engine_sims: int = 0
    n_memo_hits: int = 0
    engine_hosts: int = 0
    exact: bool = False
    flat_fallback: bool = False
    refine_mode: str = "bounded"
    #: ladder level -> how many refinement groups ran at it.
    refine_levels: Dict[str, int] = field(default_factory=dict)
    #: engine hosts billed by refinement groups (bounded bill).
    n_refine_engine_hosts: int = 0
    #: engine hosts a full-pod unfold would have billed for the same
    #: groups — the denominator of the bounded-refinement win.
    n_full_unfold_hosts: int = 0
    refine_reasons: Tuple[str, ...] = ()
    outcomes: Dict[str, JobOutcome] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def fold_factor(self) -> float:
        """Hosts the flat engine would simulate per host it did."""
        return self.n_job_hosts / max(1, self.engine_hosts)

    @property
    def mean_efficiency(self) -> float:
        if not self.outcomes:
            return 1.0
        return sum(o.efficiency for o in self.outcomes.values()) \
            / len(self.outcomes)

    def to_dict(self, max_jobs: int = 256) -> dict:
        names = sorted(self.outcomes)
        jobs = {}
        for name in names[:max_jobs]:
            outcome = self.outcomes[name]
            jobs[name] = {
                "iteration_times_s": list(outcome.iteration_times_s),
                "expected_iteration_s": outcome.expected_iteration_s,
                "mean_iteration_s": outcome.mean_iteration_s,
                "efficiency": outcome.efficiency,
            }
        return {
            "scenario": {
                "total_gpus": self.total_gpus,
                "n_pods": self.n_pods,
                "n_jobs": self.n_jobs,
                "n_job_hosts": self.n_job_hosts,
            },
            "fold": {
                "n_pod_classes": self.n_pod_classes,
                "n_refined_groups": self.n_refined_groups,
                "n_refined_pods": self.n_refined_pods,
                "n_analytic_jobs": self.n_analytic_jobs,
                "n_engine_sims": self.n_engine_sims,
                "n_memo_hits": self.n_memo_hits,
                "engine_hosts": self.engine_hosts,
                "fold_factor": self.fold_factor,
                "exact": self.exact,
                "flat_fallback": self.flat_fallback,
                "refine": {
                    "mode": self.refine_mode,
                    "levels": dict(sorted(self.refine_levels.items())),
                    "engine_hosts": self.n_refine_engine_hosts,
                    "full_unfold_hosts": self.n_full_unfold_hosts,
                    "reasons": list(self.refine_reasons),
                },
            },
            "aggregate": {
                "mean_efficiency": self.mean_efficiency,
                "mean_iteration_s": (
                    sum(o.mean_iteration_s
                        for o in self.outcomes.values())
                    / len(self.outcomes) if self.outcomes else 0.0),
            },
            "jobs": jobs,
            "n_jobs_truncated": max(0, len(names) - max_jobs),
        }


class HierarchicalRun:
    """Symmetry-folded simulation of a (possibly huge) Astral scenario.

    Same result surface as :class:`MultiJobRun`: ``run()`` returns
    ``Dict[str, JobOutcome]``.  ``report`` (populated by ``run()``)
    carries the fold statistics and the outcome map.
    """

    def __init__(self, params: AstralParams,
                 jobs: Sequence[HierJob],
                 faults: Optional[Dict[str, FaultSpec]] = None,
                 pod_power_caps: Optional[Dict[int, float]] = None,
                 refine: str = "bounded"):
        self.params = params
        self.jobs = list(jobs)
        if not self.jobs:
            raise ValueError("need at least one job")
        if refine not in REFINE_MODES:
            raise ValueError(
                f"unknown refine mode {refine!r}; expected one of "
                f"{REFINE_MODES}")
        self.refine = refine
        self.faults = dict(faults or {})
        self.power_caps = dict(pod_power_caps or {})
        self.placed = place_jobs(params, self.jobs)
        self.symmetry: SymmetryMap = detect_symmetry(
            params, self.placed, self.faults, self.power_caps)
        self.report = HierarchicalReport()
        self.refine_plans: List[RefinePlan] = []
        self._outcomes: Optional[Dict[str, JobOutcome]] = None

    def run(self) -> Dict[str, JobOutcome]:
        if self._outcomes is not None:
            return self._outcomes
        began = time.perf_counter()
        symmetry = self.symmetry
        runner = EngineRunner()
        solved: Dict[str, JobOutcome] = {}
        for cls in symmetry.classes:
            solved.update(fold_pod_class(self.params, cls,
                                         symmetry.power_caps, runner))
        refined, plans = run_refined_groups(self.params, symmetry,
                                            runner, mode=self.refine)
        solved.update(refined)
        self.refine_plans = plans
        solved.update(analytic_outcomes(self.params, symmetry.analytic,
                                        symmetry.power_caps))
        # Placement order, like MultiJobRun's config order.
        outcomes = {p.name: solved[p.name] for p in self.placed}
        self._outcomes = outcomes
        self.report = HierarchicalReport(
            total_gpus=self.params.total_gpus,
            n_pods=self.params.pods,
            n_jobs=len(self.placed),
            n_job_hosts=sum(p.n_hosts for p in self.placed),
            n_pod_classes=len(symmetry.classes),
            n_refined_groups=len(symmetry.refined),
            n_refined_pods=sum(len(g.pods) for g in symmetry.refined),
            n_analytic_jobs=len(symmetry.analytic),
            n_engine_sims=runner.n_sims,
            n_memo_hits=runner.n_memo_hits,
            engine_hosts=runner.engine_hosts,
            exact=symmetry.exact,
            flat_fallback=symmetry.flat_fallback,
            refine_mode=self.refine,
            refine_levels=_level_histogram(plans),
            n_refine_engine_hosts=sum(p.n_engine_hosts for p in plans),
            n_full_unfold_hosts=sum(p.n_full_hosts for p in plans),
            refine_reasons=tuple(sorted(
                {reason for plan in plans for reason in plan.reasons})),
            outcomes=outcomes,
            elapsed_s=time.perf_counter() - began,
        )
        return outcomes
