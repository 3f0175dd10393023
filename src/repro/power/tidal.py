"""Daily tidal power pattern and the flattening scheduler (Figure 16).

The paper observes that inference power follows user activity: high
during the day, declining from 10 p.m. to 8 a.m.  Because the operator
signed a *constant-power* contract with utility companies, training jobs
are scheduled into the nightly trough (with cheap night rental prices as
the incentive), flattening total consumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "TidalProfile",
    "NightTrainingScheduler",
    "daily_inference_power",
    "demand_fraction",
]


@dataclass(frozen=True)
class TidalProfile:
    """Shape of the daily inference demand curve.

    ``night_start_hour``/``night_end_hour`` bound the trough (22:00 to
    08:00 in the paper); ``trough_frac`` is nighttime demand relative to
    the daytime plateau.
    """

    peak_mw: float = 100.0
    trough_frac: float = 0.35
    night_start_hour: float = 22.0
    night_end_hour: float = 8.0
    ramp_hours: float = 2.0

    def is_night(self, hour: float) -> bool:
        hour = hour % 24.0
        if self.night_start_hour > self.night_end_hour:
            return hour >= self.night_start_hour \
                or hour < self.night_end_hour
        return self.night_start_hour <= hour < self.night_end_hour


def daily_inference_power(profile: TidalProfile,
                          hours: Optional[np.ndarray] = None
                          ) -> np.ndarray:
    """Inference power (MW) over the day; smooth day/night transitions."""
    if hours is None:
        hours = np.linspace(0.0, 24.0, 24 * 60, endpoint=False)
    trough = profile.peak_mw * profile.trough_frac
    power = np.empty_like(hours, dtype=float)
    for i, hour in enumerate(hours):
        hour = hour % 24.0
        if profile.is_night(hour):
            # Distance into the night, for the decline ramp after 22:00.
            since_start = (hour - profile.night_start_hour) % 24.0
            until_end = (profile.night_end_hour - hour) % 24.0
            if since_start < profile.ramp_hours:
                frac = since_start / profile.ramp_hours
                power[i] = profile.peak_mw * (1 - frac) + trough * frac
            elif until_end < profile.ramp_hours:
                frac = 1.0 - until_end / profile.ramp_hours
                power[i] = trough * (1 - frac) + profile.peak_mw * frac
            else:
                power[i] = trough
        else:
            power[i] = profile.peak_mw
    return power


def demand_fraction(profile: TidalProfile, hour: float) -> float:
    """Scalar demand at ``hour`` as a fraction of the daytime plateau.

    Pure-python companion to :func:`daily_inference_power` (same ramp
    shape, no numpy) so the serving trace generator can evaluate the
    tide at arbitrary local hours without building an array.
    """
    hour = hour % 24.0
    trough = profile.trough_frac
    if not profile.is_night(hour):
        return 1.0
    since_start = (hour - profile.night_start_hour) % 24.0
    until_end = (profile.night_end_hour - hour) % 24.0
    if since_start < profile.ramp_hours:
        frac = since_start / profile.ramp_hours
        return (1.0 - frac) + trough * frac
    if until_end < profile.ramp_hours:
        frac = 1.0 - until_end / profile.ramp_hours
        return trough * (1.0 - frac) + frac
    return trough


@dataclass
class NightTrainingScheduler:
    """Fill the nightly trough with training load up to the contract line.

    ``contract_mw`` is the constant-power commitment; training capacity
    is allocated as ``contract - inference`` at each instant, clipped at
    the available training demand.
    """

    profile: TidalProfile
    contract_mw: Optional[float] = None

    def __post_init__(self) -> None:
        if self.contract_mw is None:
            self.contract_mw = self.profile.peak_mw

    def schedule(self, hours: np.ndarray,
                 training_demand_mw: float = float("inf")
                 ) -> dict:
        """Return inference, training, and total power series (MW)."""
        inference = daily_inference_power(self.profile, hours)
        headroom = np.clip(self.contract_mw - inference, 0.0, None)
        training = np.minimum(headroom, training_demand_mw)
        total = inference + training
        return {
            "hours": hours,
            "inference_mw": inference,
            "training_mw": training,
            "total_mw": total,
        }

    def flatness(self, hours: np.ndarray,
                 training_demand_mw: float = float("inf")) -> float:
        """Coefficient of variation of total power (0 = perfectly flat)."""
        total = self.schedule(hours, training_demand_mw)["total_mw"]
        mean = float(np.mean(total))
        if mean == 0.0:
            return 0.0
        return float(np.std(total)) / mean
