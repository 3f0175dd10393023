"""Per-job and cluster-level scheduling metrics.

The quantities production schedulers are judged on (and that "99
Problems" argues dominate delivered FLOPS): job completion time and
queueing delay per job; utilization, goodput, and placement
fragmentation for the cluster.  Everything here is plain arithmetic over
the scheduler's event log, and :meth:`ClusterReport.to_dict` is fully
deterministic so two runs with one seed compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["JobRecord", "ClusterReport", "render_cluster_report"]


@dataclass
class JobRecord:
    """Lifecycle record of one job through the scheduler."""

    name: str
    priority: int
    submit_s: float
    n_hosts_requested: int
    duration_s: float                      # ideal service time
    status: str = "queued"                 # running|completed|killed|rejected
    first_start_s: Optional[float] = None
    end_s: Optional[float] = None
    attempts: int = 0
    failures: int = 0
    preemptions: int = 0
    final_n_hosts: int = 0
    final_hosts: Tuple[str, ...] = ()
    pods_spanned: List[int] = field(default_factory=list)  # per attempt
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    busy_host_s: float = 0.0               # host-seconds actually occupied
    lost_s: float = 0.0                    # work rolled back by failures

    @property
    def jct_s(self) -> Optional[float]:
        """Job completion time: submit to finish."""
        if self.end_s is None or self.status != "completed":
            return None
        return self.end_s - self.submit_s

    @property
    def queue_delay_s(self) -> Optional[float]:
        """Submit to first start."""
        if self.first_start_s is None:
            return None
        return self.first_start_s - self.submit_s

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "priority": self.priority,
            "submit_s": round(self.submit_s, 6),
            "n_hosts": self.n_hosts_requested,
            "status": self.status,
            "first_start_s": None if self.first_start_s is None
            else round(self.first_start_s, 6),
            "end_s": None if self.end_s is None else round(self.end_s, 6),
            "attempts": self.attempts,
            "failures": self.failures,
            "preemptions": self.preemptions,
            "final_n_hosts": self.final_n_hosts,
            "pods_spanned": list(self.pods_spanned),
            "busy_host_s": round(self.busy_host_s, 6),
            "lost_s": round(self.lost_s, 6),
        }


@dataclass
class ClusterReport:
    """Roll-up of one scheduler run."""

    policy: str
    seed: int
    total_hosts: int
    makespan_s: float
    records: List[JobRecord]
    useful_host_s: float = 0.0

    # -- derived aggregates ---------------------------------------------
    @property
    def busy_host_s(self) -> float:
        return sum(record.busy_host_s for record in self.records)

    @property
    def completed(self) -> List[JobRecord]:
        return [r for r in self.records if r.status == "completed"]

    @property
    def utilization(self) -> float:
        """Occupied host-seconds over offered host-seconds."""
        offered = self.total_hosts * self.makespan_s
        return 0.0 if offered <= 0 else self.busy_host_s / offered

    @property
    def goodput_fraction(self) -> float:
        """Useful (checkpointed, finally-completed) work over occupancy."""
        busy = self.busy_host_s
        return 0.0 if busy <= 0 else self.useful_host_s / busy

    @property
    def mean_jct_s(self) -> float:
        times = [r.jct_s for r in self.completed if r.jct_s is not None]
        return sum(times) / len(times) if times else 0.0

    @property
    def mean_queue_delay_s(self) -> float:
        delays = [r.queue_delay_s for r in self.records
                  if r.queue_delay_s is not None]
        return sum(delays) / len(delays) if delays else 0.0

    @property
    def mean_pods_spanned(self) -> float:
        """Fragmentation: pods touched per placement, over all attempts."""
        spans = [span for record in self.records
                 for span in record.pods_spanned]
        return sum(spans) / len(spans) if spans else 0.0

    @property
    def total_failures(self) -> int:
        return sum(record.failures for record in self.records)

    @property
    def total_preemptions(self) -> int:
        return sum(record.preemptions for record in self.records)

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return dict(sorted(counts.items()))

    def peak_concurrent(self) -> List[JobRecord]:
        """Records running together at the busiest instant.

        This is the set :class:`~repro.monitoring.multijob.MultiJobRun`
        co-schedules to measure fabric contention among the tenants the
        scheduler actually packed together.
        """
        best: List[JobRecord] = []
        for record in self.records:
            for start, _ in record.intervals:
                active = [
                    other for other in self.records
                    if any(s <= start < e for s, e in other.intervals)
                ]
                if len(active) > len(best):
                    best = active
        return best

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict:
        """Deterministic dictionary: same seed => identical value."""
        return {
            "policy": self.policy,
            "seed": self.seed,
            "total_hosts": self.total_hosts,
            "makespan_s": round(self.makespan_s, 6),
            "jobs": len(self.records),
            "status": self.status_counts(),
            "utilization": round(self.utilization, 6),
            "goodput_fraction": round(self.goodput_fraction, 6),
            "mean_jct_s": round(self.mean_jct_s, 6),
            "mean_queue_delay_s": round(self.mean_queue_delay_s, 6),
            "mean_pods_spanned": round(self.mean_pods_spanned, 6),
            "failures": self.total_failures,
            "preemptions": self.total_preemptions,
            "records": [record.to_dict() for record in self.records],
        }

    def render(self, max_rows: int = 20) -> str:
        """Operator-facing text report."""
        return render_cluster_report(self.to_dict(), max_rows)


def render_cluster_report(report: Dict, max_rows: int = 20) -> str:
    """Operator-facing text of a :meth:`ClusterReport.to_dict` value,
    plus the ``contention`` section a ``cluster-sweep`` task adds."""
    statuses = ", ".join(f"{k}={v}" for k, v in report["status"].items())
    lines = [
        f"cluster schedule — policy={report['policy']} "
        f"seed={report['seed']} hosts={report['total_hosts']}",
        f"  jobs            : {report['jobs']} ({statuses})",
        f"  makespan        : {report['makespan_s'] / 3600.0:.2f} h",
        f"  utilization     : {report['utilization']:.1%}",
        f"  goodput         : {report['goodput_fraction']:.1%}",
        f"  mean JCT        : {report['mean_jct_s'] / 3600.0:.2f} h",
        f"  mean queue delay: "
        f"{report['mean_queue_delay_s'] / 60.0:.1f} min",
        f"  mean pods span  : {report['mean_pods_spanned']:.2f}",
        f"  failures        : {report['failures']} "
        f"(preemptions {report['preemptions']})",
        f"  {'job':<10} {'prio':>4} {'hosts':>5} {'status':<10} "
        f"{'wait(m)':>8} {'jct(h)':>7} {'fail':>4} {'pods':>4}",
    ]
    for record in report["records"][:max_rows]:
        start, end = record["first_start_s"], record["end_s"]
        wait = "-" if start is None else \
            f"{(start - record['submit_s']) / 60.0:8.1f}"
        jct = "-" if end is None or record["status"] != "completed" \
            else f"{(end - record['submit_s']) / 3600.0:7.2f}"
        spans = record["pods_spanned"]
        lines.append(
            f"  {record['name']:<10} {record['priority']:>4} "
            f"{record['n_hosts']:>5} {record['status']:<10} {wait:>8} "
            f"{jct:>7} {record['failures']:>4} "
            f"{sum(spans) / max(1, len(spans)):>4.1f}")
    if len(report["records"]) > max_rows:
        lines.append(f"  ... {len(report['records']) - max_rows} more")
    if "contention" in report:
        lines.append("peak-set fabric contention:")
        lines += [f"  {name:<10} efficiency {outcome['efficiency']:6.1%} "
                  f"({outcome['mean_iteration_s']:.3f} s/iter)"
                  for name, outcome in sorted(report["contention"].items())]
    return "\n".join(lines)
