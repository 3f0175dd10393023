"""Training goodput under failures: what MTTLF reductions buy.

The paper motivates the monitoring system with scale economics: "as LLM
training scales, failures become increasingly disruptive, slowing down
the entire job, possibly involving tens of thousands of GPUs."  This
module makes that argument quantitative:

* a :class:`FailureModel` composes per-component failure rates into a
  cluster-level MTBF that shrinks linearly with scale;
* a :class:`CheckpointPolicy` carries checkpoint/restart costs, with
  the Young/Daly optimal checkpoint interval;
* :func:`training_goodput` folds in the time a failure steals — lost
  work since the last checkpoint, *localization* (the MTTLF the
  hierarchical analyzer reduces from days to minutes), and restart —
  yielding the fraction of wall-clock spent making forward progress.

Comparing goodput with manual vs automated localization reproduces the
operational payoff of §3: at large scale, MTTLF dominates the failure
penalty, so the 12-25x reductions translate directly into training
throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..monitoring.faults import Manifestation
from ..monitoring.mttlf import MttlfModel

__all__ = [
    "FailureModel",
    "CheckpointPolicy",
    "GoodputReport",
    "failure_penalty_s",
    "training_goodput",
]


def failure_penalty_s(interval_s: float, locate_hours: float,
                      restart_s: float) -> float:
    """Expected wall-clock cost of one failure, in seconds.

    Lost work since the last checkpoint (half an interval in
    expectation) + fault localization + restart.  Single source of
    truth shared by the analytic :func:`training_goodput` model and the
    event-driven resilience campaigns, so measured and predicted
    penalties are directly comparable.
    """
    lost = 0.0 if math.isinf(interval_s) else interval_s / 2.0
    return lost + locate_hours * 3600.0 + restart_s


@dataclass(frozen=True)
class FailureModel:
    """Per-component failure rates composed into cluster MTBF.

    Defaults put a 10K-GPU job at roughly one failure every couple of
    days — the regime large production runs report.
    """

    gpu_failures_per_hour: float = 1.2e-6
    host_failures_per_hour: float = 4.0e-6      # CPU/mem/PCIe/env
    nic_failures_per_hour: float = 1.5e-6
    link_failures_per_hour: float = 0.8e-6      # optics, flaps
    switch_failures_per_hour: float = 2.0e-6

    def cluster_failure_rate_per_hour(self, n_gpus: int,
                                      gpus_per_host: int = 8,
                                      links_per_gpu: float = 2.0,
                                      gpus_per_switch: float = 64.0
                                      ) -> float:
        if n_gpus < 0:
            raise ValueError("GPU count cannot be negative")
        hosts = n_gpus / gpus_per_host
        links = n_gpus * links_per_gpu
        switches = n_gpus / gpus_per_switch
        return (n_gpus * self.gpu_failures_per_hour
                + hosts * self.host_failures_per_hour
                + n_gpus * self.nic_failures_per_hour
                + links * self.link_failures_per_hour
                + switches * self.switch_failures_per_hour)

    def mtbf_hours(self, n_gpus: int, **kwargs) -> float:
        rate = self.cluster_failure_rate_per_hour(n_gpus, **kwargs)
        return float("inf") if rate == 0 else 1.0 / rate


@dataclass(frozen=True)
class CheckpointPolicy:
    """Checkpoint/restart economics."""

    checkpoint_write_s: float = 120.0
    restart_s: float = 600.0        # scheduling + load + NCCL re-init
    interval_s: Optional[float] = None   # None => Young/Daly optimal

    def optimal_interval_s(self, mtbf_hours: float) -> float:
        """Young's approximation: sqrt(2 * C * MTBF)."""
        if mtbf_hours <= 0:
            raise ValueError("MTBF must be positive")
        if math.isinf(mtbf_hours):
            return float("inf")
        return math.sqrt(2.0 * self.checkpoint_write_s
                         * mtbf_hours * 3600.0)

    def effective_interval_s(self, mtbf_hours: float) -> float:
        if self.interval_s is not None:
            if self.interval_s <= 0:
                raise ValueError("checkpoint interval must be positive")
            return self.interval_s
        return self.optimal_interval_s(mtbf_hours)


@dataclass
class GoodputReport:
    """Breakdown of where wall-clock time goes."""

    n_gpus: int
    mtbf_hours: float
    checkpoint_interval_s: float
    localization_hours_per_failure: float
    goodput_fraction: float
    checkpoint_overhead_fraction: float
    failure_overhead_fraction: float


def training_goodput(n_gpus: int,
                     failure_model: Optional[FailureModel] = None,
                     checkpoint: Optional[CheckpointPolicy] = None,
                     mttlf: Optional[MttlfModel] = None,
                     localization: str = "automated") -> GoodputReport:
    """Fraction of wall-clock doing useful training at a given scale.

    ``localization`` selects the fault-localization regime: "automated"
    (the hierarchical analyzer, minutes) or "manual" (the
    pre-deployment workflows, hours to days).  The per-failure penalty
    is lost work (half a checkpoint interval in expectation) plus
    localization plus restart.
    """
    if localization not in ("automated", "manual"):
        raise ValueError(
            f"localization must be automated or manual: {localization}")
    failure_model = failure_model or FailureModel()
    checkpoint = checkpoint or CheckpointPolicy()
    mttlf = mttlf or MttlfModel(n_hosts=max(2, n_gpus // 8),
                                jitter_frac=0.0)

    mtbf_hours = failure_model.mtbf_hours(n_gpus)
    interval_s = checkpoint.effective_interval_s(mtbf_hours)

    # Failure mix from the paper's taxonomy; hang/slow faults dominate
    # localization cost, stop faults the count.
    mix = {
        Manifestation.FAIL_STOP: 0.66,
        Manifestation.FAIL_HANG: 0.17,
        Manifestation.FAIL_SLOW: 0.13,
        Manifestation.FAIL_ON_START: 0.04,
    }
    if localization == "automated":
        locate_hours = sum(
            weight * mttlf.automated_hours(manifestation)
            for manifestation, weight in mix.items())
    else:
        locate_hours = sum(
            weight * mttlf.manual_hours(manifestation)
            for manifestation, weight in mix.items())

    # Per failure: half an interval of lost work + locate + restart.
    per_failure_s = failure_penalty_s(interval_s, locate_hours,
                                      checkpoint.restart_s)
    failures_per_s = 0.0 if math.isinf(mtbf_hours) \
        else 1.0 / (mtbf_hours * 3600.0)
    failure_overhead = per_failure_s * failures_per_s

    checkpoint_overhead = 0.0 if math.isinf(interval_s) \
        else checkpoint.checkpoint_write_s / interval_s

    denominator = 1.0 + failure_overhead + checkpoint_overhead
    goodput = 1.0 / denominator
    return GoodputReport(
        n_gpus=n_gpus,
        mtbf_hours=mtbf_hours,
        checkpoint_interval_s=interval_s,
        localization_hours_per_failure=locate_hours,
        goodput_fraction=goodput,
        checkpoint_overhead_fraction=checkpoint_overhead / denominator,
        failure_overhead_fraction=failure_overhead / denominator,
    )
