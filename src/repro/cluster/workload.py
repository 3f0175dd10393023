"""Deterministic job-arrival trace generation for the cluster scheduler.

The paper operates its fabric as a *shared production resource*: training
jobs of wildly different sizes arrive around the clock, run for hours to
weeks, fail, restart, and contend for pods (§5).  This module synthesizes
that arrival process with the statistical shape production traces report —
Poisson arrivals, power-of-two host counts skewed small with a heavy
large-job tail, log-normal durations — while staying fully reproducible:
every draw comes from one seeded :class:`random.Random`, seeded with a
*string* so the trace is identical across processes regardless of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

__all__ = ["JobSpec", "WorkloadConfig", "WorkloadGenerator"]


@dataclass(frozen=True)
class JobSpec:
    """One job in an arrival trace.

    ``duration_s`` is the *service* time at ``n_hosts`` — the wall-clock
    the job needs on its full allocation with no failures or queueing.
    Higher ``priority`` is more important.
    """

    name: str
    submit_s: float
    n_hosts: int
    duration_s: float
    priority: int = 0

    @property
    def host_seconds(self) -> float:
        """Ideal work content: what the job charges a perfect cluster."""
        return self.n_hosts * self.duration_s


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the synthetic arrival process."""

    mean_interarrival_s: float = 450.0
    host_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32)
    size_weights: Sequence[float] = (0.25, 0.20, 0.20, 0.15, 0.12, 0.08)
    mean_duration_s: float = 2.0 * 3600.0
    duration_sigma: float = 0.8          # log-normal shape
    min_duration_s: float = 300.0
    priority_levels: Sequence[int] = (0, 1, 2)
    priority_weights: Sequence[float] = (0.70, 0.22, 0.08)

    def validate(self) -> None:
        if self.mean_interarrival_s <= 0:
            raise ValueError("mean inter-arrival must be positive")
        if len(self.host_sizes) != len(self.size_weights):
            raise ValueError("host_sizes and size_weights must align")
        if len(self.priority_levels) != len(self.priority_weights):
            raise ValueError("priority levels and weights must align")
        if self.mean_duration_s <= 0 or self.min_duration_s < 0:
            raise ValueError("durations must be positive")


@dataclass
class WorkloadGenerator:
    """Seeded generator of :class:`JobSpec` traces."""

    seed: int = 0
    config: WorkloadConfig = field(default_factory=WorkloadConfig)

    def generate(self, n_jobs: int,
                 max_hosts: Optional[int] = None) -> List[JobSpec]:
        """Produce ``n_jobs`` specs in submit order.

        ``max_hosts`` clips requests to the cluster size so every job is
        schedulable in principle.
        """
        if n_jobs < 0:
            raise ValueError("cannot generate a negative number of jobs")
        self.config.validate()
        rng = random.Random(f"cluster-workload:{self.seed}")
        # log-normal with the configured mean: mu = ln(mean) - sigma^2/2
        mu = (math.log(self.config.mean_duration_s)
              - self.config.duration_sigma ** 2 / 2.0)
        specs: List[JobSpec] = []
        now = 0.0
        for index in range(n_jobs):
            now += rng.expovariate(1.0 / self.config.mean_interarrival_s)
            n_hosts = rng.choices(list(self.config.host_sizes),
                                  weights=self.config.size_weights)[0]
            if max_hosts is not None:
                n_hosts = max(1, min(n_hosts, max_hosts))
            duration = max(
                self.config.min_duration_s,
                rng.lognormvariate(mu, self.config.duration_sigma))
            priority = rng.choices(
                list(self.config.priority_levels),
                weights=self.config.priority_weights)[0]
            specs.append(JobSpec(
                name=f"job-{index:03d}",
                submit_s=round(now, 3),
                n_hosts=n_hosts,
                duration_s=round(duration, 3),
                priority=priority,
            ))
        return specs
