"""Green-energy generation curves and self-consumption (§2.2).

"We build roof-mounted solar power stations and flatland wind power
stations ... as a supplement to electricity.  According to our 2024
reports, the proportion of renewable energy is 22%, which reduces 778
thousand tons of carbon emissions."

This module models the *daily shape* of that supplement: solar follows
a daylight bell, wind is flat with diurnal wobble, and the datacenter's
tidal demand (high by day) turns out to match solar well — the quantity
:func:`self_consumption` measures.  Capacities can be solved so the
renewable share hits a target (e.g. the paper's 22%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .tidal import TidalProfile, daily_inference_power

__all__ = [
    "RenewableGeneration",
    "solar_curve_mw",
    "wind_curve_mw",
    "self_consumption",
    "size_for_renewable_share",
]


def solar_curve_mw(peak_mw: float, hours: np.ndarray,
                   sunrise: float = 6.0, sunset: float = 19.0
                   ) -> np.ndarray:
    """Daylight bell: zero outside [sunrise, sunset], sin^2 inside."""
    if sunset <= sunrise:
        raise ValueError("sunset must be after sunrise")
    curve = np.zeros_like(hours, dtype=float)
    daylight = (hours >= sunrise) & (hours <= sunset)
    phase = (hours[daylight] - sunrise) / (sunset - sunrise) * np.pi
    curve[daylight] = peak_mw * np.sin(phase) ** 2
    return curve


def wind_curve_mw(mean_mw: float, hours: np.ndarray,
                  diurnal_swing: float = 0.2,
                  noise_frac: float = 0.08,
                  seed: int = 0) -> np.ndarray:
    """Wind: roughly flat, slightly stronger at night, noisy."""
    rng = np.random.default_rng(seed)
    diurnal = 1.0 + diurnal_swing * np.cos(
        (hours - 3.0) / 24.0 * 2.0 * np.pi)
    noise = rng.normal(1.0, noise_frac, size=len(hours))
    return np.clip(mean_mw * diurnal * noise, 0.0, None)


@dataclass(frozen=True)
class RenewableGeneration:
    """Installed renewable capacity feeding one facility."""

    solar_peak_mw: float = 20.0
    wind_mean_mw: float = 8.0
    seed: int = 0

    def generation_mw(self, hours: np.ndarray) -> np.ndarray:
        return (solar_curve_mw(self.solar_peak_mw, hours)
                + wind_curve_mw(self.wind_mean_mw, hours,
                                seed=self.seed))


def self_consumption(generation_mw: np.ndarray,
                     demand_mw: np.ndarray,
                     hours: np.ndarray) -> dict:
    """How much generation the facility absorbs directly.

    Returns consumed/curtailed energy (MWh/day), the renewable share of
    demand, and the curtailment fraction of generation.
    """
    if not (len(generation_mw) == len(demand_mw) == len(hours)):
        raise ValueError("series must have equal length")
    dt = hours[1] - hours[0] if len(hours) > 1 else 0.0
    consumed = np.minimum(generation_mw, demand_mw)
    consumed_mwh = float(np.sum(consumed) * dt)
    generated_mwh = float(np.sum(generation_mw) * dt)
    demand_mwh = float(np.sum(demand_mw) * dt)
    return {
        "consumed_mwh": consumed_mwh,
        "generated_mwh": generated_mwh,
        "demand_mwh": demand_mwh,
        "renewable_share": consumed_mwh / demand_mwh
        if demand_mwh else 0.0,
        "curtailment": 1.0 - consumed_mwh / generated_mwh
        if generated_mwh else 0.0,
    }


def size_for_renewable_share(target_share: float,
                             profile: Optional[TidalProfile] = None,
                             solar_to_wind_ratio: float = 2.5,
                             flatten_with_training: bool = True
                             ) -> Tuple[RenewableGeneration, dict]:
    """Scale installed capacity until renewables cover *target_share*.

    The demand curve is the tidal profile, optionally flattened by
    night-training scheduling (which is what the deployment runs).
    Returns the sized generation and its self-consumption report —
    used to reproduce the paper's 22% / 778 kt figures.
    """
    if not 0.0 < target_share < 0.8:
        raise ValueError("target share must be in (0, 0.8)")
    profile = profile or TidalProfile()
    hours = np.linspace(0.0, 24.0, 24 * 60, endpoint=False)
    if flatten_with_training:
        demand = np.full_like(hours, profile.peak_mw)
    else:
        demand = daily_inference_power(profile, hours)

    low, high = 0.0, 40.0 * profile.peak_mw
    generation = RenewableGeneration()
    report: dict = {}
    for _ in range(60):
        scale = (low + high) / 2.0
        generation = RenewableGeneration(
            solar_peak_mw=scale * solar_to_wind_ratio,
            wind_mean_mw=scale)
        report = self_consumption(generation.generation_mw(hours),
                                  demand, hours)
        if report["renewable_share"] < target_share:
            low = scale
        else:
            high = scale
    return generation, report
