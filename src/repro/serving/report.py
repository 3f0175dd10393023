"""SLO roll-up for a serving run: the numbers an operator pages on.

TTFT (time-to-first-token) and TPOT (time-per-output-token) percentiles
come from the folded pool simulations — each distinct per-replica rate
class is simulated once and its samples weighted by the requests the
class actually served across all pairs and buckets, so percentiles are
exact over the full (replicated) population without simulating millions
of requests.  KV-transfer latency from the fabric co-simulation is a
separate additive component of TTFT and is reported both ways.

``to_dict`` is pure JSON and fully deterministic — it is the farm cache
payload and the object every bit-identity test compares with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["ServingReport", "weighted_percentile"]


def weighted_percentile(samples: Sequence[Tuple[float, float]],
                        q: float) -> Optional[float]:
    """Nearest-rank percentile over ``(value, weight)`` samples.

    Deterministic (stable sort on value, then cumulative weight); no
    interpolation, so the result is always an actual sample value and
    survives ``==`` comparison across backends.  Empty input → None.
    """
    if not samples:
        return None
    ordered = sorted(samples, key=lambda s: s[0])
    total = sum(weight for _, weight in ordered)
    if total <= 0:
        return ordered[0][0]
    target = q / 100.0 * total
    cumulative = 0.0
    for value, weight in ordered:
        cumulative += weight
        if cumulative >= target:
            return value
    return ordered[-1][0]


@dataclass
class ServingReport:
    """End-to-end results of one diurnal serving scenario."""

    scenario: Dict                   # config echo (excluded from oracles)
    trace: Dict
    pools: Dict
    autoscale: Dict
    slo: Dict
    cosim: Dict
    training: Optional[Dict]
    power: Dict
    fold: Dict

    # -- convenience accessors ------------------------------------------
    @property
    def p99_ttft_s(self) -> Optional[float]:
        return self.slo.get("ttft_p99_s")

    @property
    def goodput_fraction(self) -> Optional[float]:
        return self.slo.get("goodput_fraction")

    @property
    def flatness_cv_total(self) -> Optional[float]:
        return self.power.get("flatness_cv_total")

    def to_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "trace": self.trace,
            "pools": self.pools,
            "autoscale": self.autoscale,
            "slo": self.slo,
            "cosim": self.cosim,
            "training": self.training,
            "power": self.power,
            "fold": self.fold,
        }

    def fingerprint(self) -> Dict:
        """The physics, minus the config echo and power economics.

        This is what the power-cap identity oracle compares: a cap that
        never binds must leave every simulated quantity bit-identical,
        while ``scenario`` (the knob itself) and ``power`` (contract
        arithmetic mentioning the knob) legitimately differ.
        """
        return {
            "trace": self.trace,
            "pools": self.pools,
            "autoscale": self.autoscale,
            "slo": self.slo,
            "cosim": self.cosim,
            "training": self.training,
            "fold": self.fold,
        }

    def render(self) -> str:
        """Operator-facing text summary."""
        slo = self.slo
        lines = [
            f"serving — {self.scenario.get('preset') or 'custom'} "
            f"seed={self.scenario.get('seed')}",
            f"  requests  : {self.trace['total_requests']:,} over "
            f"{self.trace['n_buckets']} buckets "
            f"(peak {self.trace['peak_rate_per_s']:.1f}/s, trough "
            f"{self.trace['trough_rate_per_s']:.1f}/s)",
            f"  pools     : {self.pools['n_pairs']} pod pair(s), "
            f"replicas/pair {self.autoscale['trough_replicas_per_pair']}"
            f"–{self.autoscale['peak_replicas_per_pair']}, "
            f"train fleet {self.pools['train_hosts']} hosts",
            f"  fold      : {self.fold['n_pool_sims']} pool sim(s) for "
            f"{self.fold['replica_buckets']} replica-buckets "
            f"({self.fold['fold_factor']:.0f}x)",
        ]
        if slo.get("ttft_p50_s") is not None:
            lines.append(
                f"  TTFT      : p50 {slo['ttft_p50_s'] * 1e3:.0f} ms, "
                f"p95 {slo['ttft_p95_s'] * 1e3:.0f} ms, "
                f"p99 {slo['ttft_p99_s'] * 1e3:.0f} ms "
                f"(+KV p95 {slo['kv_p95_s'] * 1e3:.0f} ms)")
            lines.append(
                f"  TPOT      : p50 {slo['tpot_p50_s'] * 1e3:.1f} ms, "
                f"p99 {slo['tpot_p99_s'] * 1e3:.1f} ms; goodput "
                f"{slo['goodput_fraction']:.1%} under SLO "
                f"{slo['slo_ttft_s']:.1f}s")
        else:
            lines.append("  TTFT      : no completed requests")
        lines.append(
            f"  cosim     : training efficiency "
            f"{self.cosim['training_efficiency']:.3f} vs clean, "
            f"{self.cosim['n_kv_flows']} KV flows timed")
        if self.training is not None:
            lines.append(
                f"  training  : {self.training['status']} "
                f"(preemptions {self.training['preemptions']})")
        power = self.power
        if power.get("flatness_cv_total") is not None:
            fill = power.get("trough_fill_fraction")
            lines.append(
                f"  power     : CV serving-only "
                f"{power['flatness_cv_serving']:.3f} -> total "
                f"{power['flatness_cv_total']:.3f} "
                f"(trough fill "
                f"{'n/a' if fill is None else format(fill, '.1%')}, "
                f"contract {power.get('contract_mw')} MW)")
        return "\n".join(lines)
