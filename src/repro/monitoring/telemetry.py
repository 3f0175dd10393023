"""Telemetry record types for the full-stack monitoring system (§3.2).

Each monitoring layer emits typed records; what makes the system *one*
system rather than four silos is the deliberately maintained join keys
(§3.2, last paragraph):

* application layer keeps the **host list** and **communication group
  info including QP data** per training task;
* QP data carries the **five-tuple**, linking down to transport-layer
  rate/error records;
* the five-tuple keys the sFlow **path database** and INT-pingmesh
  validation, linking down to hop-by-hop **devices**;
* devices key the physical-layer counters and syslogs.

All records share a ``time_s`` stamp and a ``layer`` tag so the
hierarchical analyzer can walk the stack top-down.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..network.ecmp import FiveTuple

__all__ = [
    "Layer",
    "NcclTimelineRecord",
    "IterationReport",
    "QpRateRecord",
    "ErrCqeRecord",
    "SflowPathRecord",
    "IntPingRecord",
    "SwitchCounterRecord",
    "SyslogRecord",
    "HostSensorRecord",
    "QpMetadata",
    "CommGroup",
    "JobMetadata",
    "TelemetryStore",
]


class Layer(enum.Enum):
    APPLICATION = "application"
    TRANSPORT = "transport"
    NETWORK = "network"
    PHYSICAL = "physical"


# --------------------------------------------------------------------------
# Application layer
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NcclTimelineRecord:
    """Per-host, per-iteration NCCL operator timing.

    ``started``/``finished`` are work-request counts within the
    iteration; a hang shows as started > finished persisting over time.
    """

    time_s: float
    job: str
    host: str
    iteration: int
    compute_time_s: float
    comm_time_s: float
    started: int
    finished: int

    layer = Layer.APPLICATION

    @property
    def incomplete(self) -> bool:
        return self.finished < self.started


@dataclass(frozen=True)
class IterationReport:
    """Aggregate per-iteration progress of a whole job."""

    time_s: float
    job: str
    iteration: int
    iteration_time_s: float
    completed: bool

    layer = Layer.APPLICATION


# --------------------------------------------------------------------------
# Transport layer
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QpRateRecord:
    """Millisecond-resolution QP throughput sample.

    Produced by filtering the first packet of each RDMA request and
    parsing the DMA length from the RETH header (§3.2) — here, sampled
    from the flow's allocated rate.
    """

    time_s: float
    host: str
    qp: int
    five_tuple: FiveTuple
    rate_gbps: float
    interval_ms: float = 1.0

    layer = Layer.TRANSPORT


@dataclass(frozen=True)
class ErrCqeRecord:
    """A Completion Queue Entry error event (failed RDMA transmission)."""

    time_s: float
    host: str
    qp: int
    five_tuple: FiveTuple
    error: str = "IBV_WC_RETRY_EXC_ERR"

    layer = Layer.TRANSPORT


# --------------------------------------------------------------------------
# Network layer
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SflowPathRecord:
    """Reconstructed flow path from sampled packets (§3.2 network layer).

    ``devices`` is the hop sequence including end hosts; ``egress_ports``
    is per-switch egress port info where sampled.
    """

    time_s: float
    five_tuple: FiveTuple
    devices: Tuple[str, ...]
    link_ids: Tuple[int, ...] = ()

    layer = Layer.NETWORK


@dataclass(frozen=True)
class IntPingRecord:
    """INT-armed ping: hop-by-hop latency along a validated path."""

    time_s: float
    five_tuple: FiveTuple
    devices: Tuple[str, ...]
    hop_latencies_us: Tuple[float, ...]

    layer = Layer.NETWORK

    def worst_hop(self) -> Tuple[int, float]:
        """(hop index, latency) of the slowest hop."""
        if not self.hop_latencies_us:
            raise ValueError("INT record has no hops")
        index = max(range(len(self.hop_latencies_us)),
                    key=lambda i: self.hop_latencies_us[i])
        return index, self.hop_latencies_us[index]


# --------------------------------------------------------------------------
# Physical layer
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchCounterRecord:
    """Per-link switch-internal counters (SNMP/telemetry export)."""

    time_s: float
    device: str
    link_id: int
    ecn_marks: float = 0.0
    pfc_pause: float = 0.0
    drops: float = 0.0
    utilization: float = 0.0

    layer = Layer.PHYSICAL


@dataclass(frozen=True)
class SyslogRecord:
    """A device-internal log line (host or switch)."""

    time_s: float
    device: str
    severity: str
    message: str
    fatal: bool = False

    layer = Layer.PHYSICAL


@dataclass(frozen=True)
class HostSensorRecord:
    """End-host diagnostics: compute units, memory, interconnects."""

    time_s: float
    host: str
    gpu_util: float = 0.0
    cpu_util: float = 0.0
    ecc_errors: int = 0
    pcie_errors: int = 0
    nvlink_errors: int = 0
    nic_cnp: float = 0.0
    nic_pfc_rx: float = 0.0

    layer = Layer.PHYSICAL


# --------------------------------------------------------------------------
# Join-key metadata (maintained by the application layer)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QpMetadata:
    """One QP of a communication group, with its five-tuple."""

    qp: int
    src_host: str
    dst_host: str
    five_tuple: FiveTuple


@dataclass
class CommGroup:
    """A communication group (e.g. one DP ring or EP all-to-all set)."""

    name: str
    kind: str                   # "allreduce" / "all_to_all" / ...
    hosts: List[str]
    qps: List[QpMetadata] = field(default_factory=list)

    def qp_for_five_tuple(self, five_tuple: FiveTuple
                          ) -> Optional[QpMetadata]:
        for qp in self.qps:
            if qp.five_tuple == five_tuple:
                return qp
        return None


@dataclass
class JobMetadata:
    """Everything the monitoring system maintains per training task."""

    job: str
    hosts: List[str]
    comm_groups: List[CommGroup] = field(default_factory=list)

    def qps(self) -> List[QpMetadata]:
        return [qp for group in self.comm_groups for qp in group.qps]

    def five_tuple_of_qp(self, qp: int) -> Optional[FiveTuple]:
        for meta in self.qps():
            if meta.qp == qp:
                return meta.five_tuple
        return None


# --------------------------------------------------------------------------
# Store
# --------------------------------------------------------------------------

#: The nine record types, declared once: (store attribute, NDJSON
#: ``type`` tag, record class).  The store's buckets, :meth:`add`'s
#: dispatch, the wire format and ``==`` all read this table, and its
#: order is the bucket order of :meth:`TelemetryStore.to_jsonl`.
_RECORD_TYPES = (
    ("nccl_timeline", "nccl-timeline", NcclTimelineRecord),
    ("iterations", "iteration", IterationReport),
    ("qp_rates", "qp-rate", QpRateRecord),
    ("err_cqes", "err-cqe", ErrCqeRecord),
    ("sflow_paths", "sflow-path", SflowPathRecord),
    ("int_pings", "int-ping", IntPingRecord),
    ("switch_counters", "switch-counter", SwitchCounterRecord),
    ("syslogs", "syslog", SyslogRecord),
    ("host_sensors", "host-sensor", HostSensorRecord),
)
_ATTR_OF_TYPE = {cls: attr for attr, _, cls in _RECORD_TYPES}
_TYPE_OF_TAG = {tag: cls for _, tag, cls in _RECORD_TYPES}
#: record fields declared as tuples — JSON round-trips them as lists,
#: so rebuild coerces them back for frozen-dataclass equality.
_TUPLE_FIELDS = ("devices", "link_ids", "hop_latencies_us")


class TelemetryStore:
    """In-memory store of all collected records, indexed per layer.

    This plays the role of the production log/metric warehouse; the
    analyzer only ever queries it through layer- and key-scoped reads,
    mirroring how the real system consolidates heterogeneous logs.
    """

    def __init__(self) -> None:
        for attr, _, _ in _RECORD_TYPES:
            setattr(self, attr, [])
        self.jobs: Dict[str, JobMetadata] = {}

    # -- writers ------------------------------------------------------------
    def register_job(self, metadata: JobMetadata) -> None:
        self.jobs[metadata.job] = metadata

    def add(self, record) -> None:
        """Dispatch a record to its layer's list by type."""
        attr = _ATTR_OF_TYPE.get(type(record))
        if attr is None:
            raise TypeError(f"unknown telemetry type: {type(record)}")
        getattr(self, attr).append(record)

    # -- scoped reads (the analyzer's query surface) ---------------------------
    def timeline_for(self, job: str, iteration: Optional[int] = None
                     ) -> List[NcclTimelineRecord]:
        records = [r for r in self.nccl_timeline if r.job == job]
        if iteration is not None:
            records = [r for r in records if r.iteration == iteration]
        return records

    def qp_rates_for(self, five_tuple: FiveTuple) -> List[QpRateRecord]:
        return [r for r in self.qp_rates if r.five_tuple == five_tuple]

    def err_cqes_for_job(self, job: str) -> List[ErrCqeRecord]:
        meta = self.jobs.get(job)
        if meta is None:
            return []
        tuples = {qp.five_tuple for qp in meta.qps()}
        return [r for r in self.err_cqes if r.five_tuple in tuples]

    def path_for(self, five_tuple: FiveTuple,
                 before_s: Optional[float] = None
                 ) -> Optional[SflowPathRecord]:
        """Latest reconstructed path for a flow.

        With ``before_s``, return the path as of *strictly before* that
        time — essential for failure analysis: after a link dies the
        flow reroutes, and only the historical record still shows the
        path that crossed the failed element.
        """
        fallback = None
        for record in reversed(self.sflow_paths):
            if record.five_tuple != five_tuple:
                continue
            if before_s is None or record.time_s < before_s:
                return record
            if fallback is None:
                fallback = record
        return fallback

    def int_ping_for(self, five_tuple: FiveTuple
                     ) -> Optional[IntPingRecord]:
        for record in reversed(self.int_pings):
            if record.five_tuple == five_tuple:
                return record
        return None

    def counters_for_device(self, device: str
                            ) -> List[SwitchCounterRecord]:
        return [r for r in self.switch_counters if r.device == device]

    def syslogs_for(self, device: str, fatal_only: bool = False
                    ) -> List[SyslogRecord]:
        records = [r for r in self.syslogs if r.device == device]
        if fatal_only:
            records = [r for r in records if r.fatal]
        return records

    def sensors_for(self, host: str) -> List[HostSensorRecord]:
        return [r for r in self.host_sensors if r.host == host]

    # -- wire format (twin streams, archives, offline analysis) ----------
    def to_jsonl(self) -> str:
        """Serialize every record (and job metadata) as NDJSON.

        One type-tagged JSON object per line; job-metadata lines come
        first, then each layer bucket in declaration order, preserving
        insertion order within a bucket — so
        ``from_jsonl(store.to_jsonl()) == store`` exactly.  This is the
        store's one wire format: the twin streams it, and an archived
        store re-analysed offline (§3.1's fallback) must reach the same
        diagnosis as the live one.
        """
        lines: List[str] = []
        for job in self.jobs.values():
            payload = asdict(job)
            payload["type"] = "job-metadata"
            lines.append(json.dumps(payload, sort_keys=True))
        for attr, tag, _ in _RECORD_TYPES:
            for record in getattr(self, attr):
                payload = asdict(record)
                payload["type"] = tag
                lines.append(json.dumps(payload, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "TelemetryStore":
        """Rebuild a store from :meth:`to_jsonl` output."""
        store = cls()
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"telemetry line {number} is not JSON: {exc}"
                ) from None
            if not isinstance(payload, dict) or "type" not in payload:
                raise ValueError(
                    f"telemetry line {number} has no 'type' tag")
            tag = payload.pop("type")
            if tag == "job-metadata":
                store.register_job(_job_from_wire(payload, number))
                continue
            store.add(_record_from_wire(tag, payload, number))
        return store

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TelemetryStore):
            return NotImplemented
        return (self.jobs == other.jobs
                and all(getattr(self, attr) == getattr(other, attr)
                        for attr, _, _ in _RECORD_TYPES))

    __hash__ = None  # mutable container


def _record_from_wire(tag: str, payload: Dict, number: int):
    record_cls = _TYPE_OF_TAG.get(tag)
    if record_cls is None:
        raise ValueError(
            f"telemetry line {number}: unknown record type {tag!r}; "
            f"expected one of {sorted(_TYPE_OF_TAG)} or 'job-metadata'")
    fields = dict(payload)
    if "five_tuple" in fields:
        fields["five_tuple"] = FiveTuple(**fields["five_tuple"])
    for name in _TUPLE_FIELDS:
        if name in fields:
            fields[name] = tuple(fields[name])
    try:
        return record_cls(**fields)
    except TypeError as exc:
        raise ValueError(f"telemetry line {number}: {exc}") from None


def _job_from_wire(payload: Dict, number: int) -> JobMetadata:
    try:
        groups = [
            CommGroup(
                name=group["name"], kind=group["kind"],
                hosts=list(group["hosts"]),
                qps=[QpMetadata(
                    qp=qp["qp"], src_host=qp["src_host"],
                    dst_host=qp["dst_host"],
                    five_tuple=FiveTuple(**qp["five_tuple"]))
                    for qp in group.get("qps", ())])
            for group in payload.get("comm_groups", ())
        ]
        return JobMetadata(job=payload["job"],
                           hosts=list(payload["hosts"]),
                           comm_groups=groups)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"telemetry line {number}: malformed "
                         f"job-metadata: {exc}") from None
