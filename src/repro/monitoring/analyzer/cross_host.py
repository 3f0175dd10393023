"""Cross-host (horizontal) correlation analysis (§3.1, §3.3).

Threshold-based alerts on individual metrics are brittle across training
scenarios; the paper's system instead compares a metric *horizontally
across hosts*, flagging the nodes that deviate from the majority
pattern.  The implementation uses robust statistics (median and median
absolute deviation) so a single bad host cannot drag the baseline.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["robust_zscores", "find_outliers", "CrossHostComparison"]

#: scale factor making MAD a consistent sigma estimator for normals.
_MAD_SCALE = 1.4826


def robust_zscores(values_by_key: Dict[str, float]) -> Dict[str, float]:
    """Median/MAD z-scores; 0 everywhere when all values agree."""
    if not values_by_key:
        return {}
    keys = list(values_by_key)
    values = np.array([values_by_key[k] for k in keys], dtype=float)
    median = np.median(values)
    mad = np.median(np.abs(values - median)) * _MAD_SCALE
    if mad == 0.0:
        # Degenerate case: at least half the hosts agree exactly.  Fall
        # back to the mean absolute deviation — unlike the standard
        # deviation it is not dominated by the very outlier we are
        # trying to flag.
        mean_ad = float(np.mean(np.abs(values - median)))
        if mean_ad == 0.0:
            return {k: 0.0 for k in keys}
        mad = mean_ad
    return {k: float((values_by_key[k] - median) / mad) for k in keys}


def find_outliers(values_by_key: Dict[str, float],
                  threshold: float = 3.5,
                  direction: str = "high",
                  min_relative: float = 0.1) -> List[str]:
    """Keys whose robust z-score exceeds *threshold*.

    ``direction`` selects one-sided ("high"/"low") or two-sided ("both")
    testing — a lagging host is a *high* outlier in time metrics.
    ``min_relative`` additionally requires the deviation to be at least
    that fraction of the median: statistically significant but
    operationally irrelevant wobbles (e.g. 1% compute-time jitter with
    a tiny MAD) must not raise alarms.
    """
    scores = robust_zscores(values_by_key)
    values = values_by_key
    median = float(np.median(list(values.values()))) if values else 0.0
    floor = abs(median) * min_relative

    def big_enough(key: str) -> bool:
        return abs(values[key] - median) >= floor

    if direction == "high":
        flagged = {k for k, z in scores.items()
                   if z > threshold and big_enough(k)}
    elif direction == "low":
        flagged = {k for k, z in scores.items()
                   if z < -threshold and big_enough(k)}
    elif direction == "both":
        flagged = {k for k, z in scores.items()
                   if abs(z) > threshold and big_enough(k)}
    else:
        raise ValueError(f"unknown direction: {direction}")
    return sorted(flagged)


class CrossHostComparison:
    """Convenience wrapper for comparing one metric across hosts."""

    def __init__(self, threshold: float = 3.5):
        self.threshold = threshold

    def lagging_hosts(self, metric_by_host: Dict[str, float]
                      ) -> List[str]:
        """Hosts significantly *slower* than the majority."""
        return find_outliers(metric_by_host, self.threshold,
                             direction="high")
