"""Maintenance-record change correlation (§5's driver war story).

"Through correlation with our monitoring system maintenance records, we
traced the issue to an NVIDIA driver update as the only suspicious
change."  When the hierarchical analyzer cannot pin a device root cause
(the fail-hang had no abnormal logs and did not reproduce at smaller
scale), the next tool is the fleet's change log: rank recent changes by
(a) how close they landed before the failure onset and (b) how well
their scope covers the affected hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["ChangeRecord", "ChangeSuspect", "MaintenanceLog"]


@dataclass(frozen=True)
class ChangeRecord:
    """One fleet change: rollout, config push, firmware, cabling."""

    time_s: float
    category: str          # "driver" | "nccl" | "firmware" | ...
    description: str
    hosts: Sequence[str] = ()    # empty = fleet-wide


@dataclass(frozen=True)
class ChangeSuspect:
    """A change ranked against a failure."""

    change: ChangeRecord
    recency_score: float   # 1.0 = immediately before onset
    coverage: float        # fraction of affected hosts in scope
    score: float

    def describe(self) -> str:
        return (f"{self.change.category}: {self.change.description} "
                f"(score {self.score:.2f}, coverage "
                f"{self.coverage:.0%})")


class MaintenanceLog:
    """Append-only record of fleet changes with suspect ranking."""

    def __init__(self, window_s: float = 14 * 86400.0):
        #: how far back a change stays suspicious (two weeks).
        self.window_s = window_s
        self._records: List[ChangeRecord] = []

    def record(self, change: ChangeRecord) -> None:
        self._records.append(change)

    def records(self) -> List[ChangeRecord]:
        return list(self._records)

    def suspects(self, onset_s: float,
                 affected_hosts: Optional[Sequence[str]] = None,
                 top: int = 5) -> List[ChangeSuspect]:
        """Changes that could explain a failure starting at *onset_s*.

        Only changes strictly before the onset and within the window
        qualify; scoring multiplies recency (linear decay over the
        window) by host-scope coverage (fleet-wide changes cover
        everything).
        """
        affected = set(affected_hosts or ())
        suspects: List[ChangeSuspect] = []
        for change in self._records:
            age = onset_s - change.time_s
            if age <= 0 or age > self.window_s:
                continue
            recency = 1.0 - age / self.window_s
            if not change.hosts:
                coverage = 1.0
            elif affected:
                coverage = len(affected & set(change.hosts)) \
                    / len(affected)
            else:
                coverage = 0.5
            score = recency * (0.25 + 0.75 * coverage)
            suspects.append(ChangeSuspect(
                change=change, recency_score=recency,
                coverage=coverage, score=score))
        suspects.sort(key=lambda s: -s.score)
        return suspects[:top]

    def only_suspicious_change(self, onset_s: float,
                               affected_hosts: Optional[
                                   Sequence[str]] = None
                               ) -> Optional[ChangeSuspect]:
        """The dominant suspect, if one clearly stands out.

        Returns the top suspect when it covers the affected hosts and
        outscores the runner-up decisively — the "only suspicious
        change" situation the §5 story ended in.
        """
        ranked = self.suspects(onset_s, affected_hosts, top=5)
        if not ranked:
            return None
        best = ranked[0]
        if best.coverage < 0.99:
            return None
        if len(ranked) > 1 and ranked[1].score > 0.7 * best.score:
            return None
        return best
