"""Diurnal request traces: millions of users, per-region tides.

The paper's Figure 16 argument starts from user behaviour: inference
demand follows the waking hours of each serving region, producing the
daily tide that training jobs later flatten.  This module synthesizes
that demand as a bucketed arrival-rate trace:

* each :class:`RegionProfile` contributes ``users_m`` million users at
  ``requests_per_user_day`` requests/day, shaped by the *same*
  :class:`~repro.power.tidal.TidalProfile` ramp the power model uses —
  evaluated at the region's local hour (``tz_offset_h``), so the peaks
  of Asia, Europe, and the Americas interleave;
* per-bucket request counts are drawn once from a string-seeded
  generator (``serving-trace:{seed}:{region}:{bucket}``), using a
  normal approximation to the Poisson count (exact at the millions-of-
  requests-per-bucket scale this models) — deterministic across
  processes regardless of ``PYTHONHASHSEED``.

Individual request arrivals are *not* materialized here: the trace is
the demand envelope the autoscaler plans against; per-request timing is
simulated per decode replica by :class:`repro.seer.ServingSimulator`
on a folded representative (see :mod:`repro.serving.run`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from ..power.tidal import TidalProfile, demand_fraction

__all__ = ["RegionProfile", "DEFAULT_REGIONS", "TraceConfig",
           "TraceBucket", "RequestTrace"]

_SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class RegionProfile:
    """One serving region's user base and clock offset."""

    name: str
    users_m: float                  # millions of users
    tz_offset_h: float              # local = UTC-ish sim clock + offset
    requests_per_user_day: float = 4.0

    @property
    def peak_rate_per_s(self) -> float:
        """Requests/s this region offers at its daytime plateau."""
        return self.users_m * 1e6 * self.requests_per_user_day \
            / _SECONDS_PER_DAY


#: Three-continent default (~42M users): peaks interleave across the
#: sim day, sized so a 64k cluster's decode ceiling is ~95% used at the
#: global peak and the daytime contract visibly squeezes training.
DEFAULT_REGIONS: Tuple[RegionProfile, ...] = (
    RegionProfile(name="apac", users_m=14.0, tz_offset_h=8.0),
    RegionProfile(name="emea", users_m=10.5, tz_offset_h=1.0),
    RegionProfile(name="amer", users_m=17.5, tz_offset_h=-5.0),
)


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the diurnal trace."""

    regions: Tuple[RegionProfile, ...] = DEFAULT_REGIONS
    duration_s: float = _SECONDS_PER_DAY
    bucket_s: float = 1800.0
    start_hour: float = 0.0         # sim t=0 on the wall clock
    profile: TidalProfile = field(default_factory=TidalProfile)
    seed: Union[int, str] = 0

    def __post_init__(self) -> None:
        if self.bucket_s <= 0 or self.duration_s < 0:
            raise ValueError("bucket_s must be positive, duration_s >= 0")

    @property
    def n_buckets(self) -> int:
        return max(1, int(math.ceil(self.duration_s / self.bucket_s)))


@dataclass(frozen=True)
class TraceBucket:
    """Aggregate demand in one time bucket."""

    index: int
    t_start_s: float
    bucket_s: float
    counts: Dict[str, int]          # region name -> requests

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def rate_per_s(self) -> float:
        return self.total / self.bucket_s


@dataclass(frozen=True)
class RequestTrace:
    """A generated demand trace: the envelope everything plans against."""

    config: TraceConfig
    buckets: Tuple[TraceBucket, ...]

    @classmethod
    def generate(cls, config: TraceConfig) -> "RequestTrace":
        buckets: List[TraceBucket] = []
        for index in range(config.n_buckets):
            t_start = index * config.bucket_s
            mid_hour = config.start_hour \
                + (t_start + config.bucket_s / 2.0) / 3600.0
            counts: Dict[str, int] = {}
            for region in config.regions:
                local_hour = (mid_hour + region.tz_offset_h) % 24.0
                expected = region.peak_rate_per_s \
                    * demand_fraction(config.profile, local_hour) \
                    * config.bucket_s
                counts[region.name] = _poisson_count(
                    expected,
                    f"serving-trace:{config.seed}:{region.name}:{index}")
            buckets.append(TraceBucket(
                index=index, t_start_s=t_start,
                bucket_s=config.bucket_s, counts=counts))
        return cls(config=config, buckets=tuple(buckets))

    # -- aggregates ------------------------------------------------------
    @property
    def total_requests(self) -> int:
        return sum(bucket.total for bucket in self.buckets)

    @property
    def peak_rate_per_s(self) -> float:
        return max((b.rate_per_s for b in self.buckets), default=0.0)

    @property
    def trough_rate_per_s(self) -> float:
        return min((b.rate_per_s for b in self.buckets), default=0.0)

    def totals_by_region(self) -> Dict[str, int]:
        totals: Dict[str, int] = {
            region.name: 0 for region in self.config.regions}
        for bucket in self.buckets:
            for name, count in bucket.counts.items():
                totals[name] += count
        return totals

    def to_dict(self) -> Dict:
        return {
            "n_buckets": len(self.buckets),
            "bucket_s": self.config.bucket_s,
            "total_requests": self.total_requests,
            "peak_rate_per_s": round(self.peak_rate_per_s, 6),
            "trough_rate_per_s": round(self.trough_rate_per_s, 6),
            "by_region": self.totals_by_region(),
            "rates_per_s": [round(b.rate_per_s, 6) for b in self.buckets],
        }


def _poisson_count(expected: float, seed_key: str) -> int:
    """Seeded Poisson draw via the normal approximation.

    At planetary scale a bucket holds 1e5–1e6 requests, where
    ``N(λ, λ)`` is indistinguishable from ``Poisson(λ)``; zero expected
    demand draws exactly zero, which is what makes the zero-arrival
    metamorphic oracle a strict no-op.
    """
    if expected <= 0.0:
        return 0
    rng = random.Random(seed_key)
    jittered = expected + rng.gauss(0.0, 1.0) * math.sqrt(expected)
    return max(0, int(round(jittered)))
