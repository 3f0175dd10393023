"""The hierarchical correlation algorithm (paper §3.3).

Starts at the application layer (closest to user perception), detects
and classifies the task-level anomaly, then drills down:

* **Branch #1 — computation anomalies**: a single abnormal host is
  correlated with its physical-layer logs; a fatal match triggers
  isolate/checkpoint/restart.  Anomalies on *multiple* hosts indicate
  software or user code, raising an alarm for manual intervention.
* **Branch #2 — communication anomalies**: errCQE events and QP rate
  samples are fetched through the maintained job metadata; the
  five-tuples lead to sFlow paths and INT pings, where two tools apply:
  path overlapping for failure points and INT per-hop delay for
  congestion hotspots, confirmed against switch counters (PFC/drops).

The analyzer consumes only the :class:`TelemetryStore` — never the
simulator's ground truth — so its verdicts can be scored against the
injected faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ...topology.elements import parse_nic
from ..evolving import DetectorRegistry, default_registry
from ..faults import Manifestation
from ..telemetry import Layer, TelemetryStore
from .cross_host import CrossHostComparison
from .int_hotspot import find_hotspots
from .timeseries import SlidingWindowDetector

__all__ = ["Diagnosis", "HierarchicalAnalyzer"]

#: QP rate below this fraction of the NIC port rate is abnormal (§3.3
#: step 2: "QP rates below 50% of the designated link bandwidth").
_QP_RATE_FRACTION = 0.5


@dataclass
class Diagnosis:
    """Output of one analysis pass over a job's telemetry."""

    job: str
    manifestation: Optional[Manifestation] = None
    anomaly_kind: Optional[str] = None   # "computation" | "communication"
    abnormal_hosts: List[str] = field(default_factory=list)
    root_cause_device: Optional[str] = None
    root_cause_layer: Optional[Layer] = None
    inferred_cause: str = "unknown"
    recommended_action: str = "continue monitoring"
    evidence: List[str] = field(default_factory=list)
    drill_down_steps: int = 0

    @property
    def localized(self) -> bool:
        return self.root_cause_device is not None \
            or self.inferred_cause not in ("unknown",)

    def note(self, message: str) -> None:
        self.evidence.append(message)
        self.drill_down_steps += 1


#: Keyword -> inferred root-cause label, for fatal-log matching.
_LOG_SIGNATURES = {
    "Xid": "gpu-hardware",
    "ECC": "memory",
    "env-check": "host-env-config",
    "CQE error": "nic-error",
    "optical": "optical-fiber",
    "carrier transitions": "link-flap",
    "neighbor mismatch": "wire-connection",
    "mismatch on": "switch-config",
    "drop counter": "switch-bug",
    "nccl: WARN": "ccl-bug",
    "unhandled exception": "user-code",
}


class HierarchicalAnalyzer:
    """Cross-host + hierarchical correlation over a telemetry store."""

    def __init__(self, store: TelemetryStore,
                 expected_compute_s: float,
                 expected_comm_s: float,
                 nic_port_gbps: float = 200.0,
                 threshold_factor: float = 1.5,
                 outlier_z: float = 3.5,
                 detectors: Optional[DetectorRegistry] = None):
        self.store = store
        #: job-level thresholds from the Seer fast forecast (§3.3:
        #: "job-related thresholds obtained by fast forecasts").
        self.expected_compute_s = expected_compute_s
        self.expected_comm_s = expected_comm_s
        self.nic_port_gbps = nic_port_gbps
        self.threshold_factor = threshold_factor
        self.cross_host = CrossHostComparison(threshold=outlier_z)
        #: pluggable physical-layer detectors (Appendix D): new anomaly
        #: classes are patched in here without touching upper layers.
        self.detectors = detectors if detectors is not None \
            else default_registry()

    # -- entry point -------------------------------------------------------
    def diagnose(self, job: str) -> Diagnosis:
        diagnosis = Diagnosis(job=job)
        records = self.store.timeline_for(job)
        if not records:
            diagnosis.note("no application-layer telemetry for job")
            return diagnosis
        last_iteration = max(r.iteration for r in records)
        latest = [r for r in records if r.iteration == last_iteration]
        diagnosis.note(
            f"application layer: inspecting iteration {last_iteration} "
            f"({len(latest)} hosts)")

        self._detect_manifestation(diagnosis, job, latest)
        self._classify_anomaly(diagnosis, latest)

        if diagnosis.anomaly_kind == "computation":
            self._branch_computation(diagnosis, latest)
        elif diagnosis.anomaly_kind == "communication":
            self._branch_communication(diagnosis, job, latest)
        return diagnosis

    # -- step 1: application-layer detection ---------------------------------
    def _detect_manifestation(self, diagnosis: Diagnosis, job: str,
                              latest) -> None:
        reports = [r for r in self.store.iterations if r.job == job]
        if not reports:
            return
        last = max(reports, key=lambda r: r.iteration)
        # started == 0: the process died (crash); started > finished:
        # the collective never completed (hang) — §3.2 app layer.
        crashed = [r.host for r in latest if r.started == 0]
        hung = [r.host for r in latest if r.incomplete]
        if not last.completed and crashed:
            diagnosis.manifestation = (
                Manifestation.FAIL_ON_START if last.iteration == 0
                else Manifestation.FAIL_STOP)
            diagnosis.note(
                f"iteration {last.iteration} did not complete; "
                f"{len(crashed)} host(s) stopped")
        elif not last.completed and hung:
            diagnosis.manifestation = Manifestation.FAIL_HANG
            diagnosis.note(
                f"iteration {last.iteration} stalled: work requests "
                f"started but unfinished on {len(hung)} host(s)")
        elif not last.completed:
            diagnosis.manifestation = Manifestation.FAIL_STOP
            diagnosis.note(f"iteration {last.iteration} aborted")
        else:
            comp_thr = self.expected_compute_s * self.threshold_factor
            comm_thr = max(self.expected_comm_s * self.threshold_factor,
                           self.expected_comm_s + 0.05)
            slow = [r for r in latest
                    if r.compute_time_s > comp_thr
                    or r.comm_time_s > comm_thr]
            if slow:
                diagnosis.manifestation = Manifestation.FAIL_SLOW
                diagnosis.note(
                    f"{len(slow)} host(s) exceed Seer-derived "
                    f"thresholds (compute > {comp_thr:.3f}s or "
                    f"comm > {comm_thr:.3f}s)")
            else:
                # History-based check: catches drifts that stay under
                # the (generous) Seer threshold.
                series = [r.iteration_time_s
                          for r in sorted(reports,
                                          key=lambda r: r.iteration)]
                alert = SlidingWindowDetector().latest(series)
                if alert is not None:
                    diagnosis.manifestation = Manifestation.FAIL_SLOW
                    diagnosis.note(
                        "iteration time regressed "
                        f"{alert.slowdown:.2f}x vs its own trailing "
                        "window (within Seer threshold)")

    def _classify_anomaly(self, diagnosis: Diagnosis, latest) -> None:
        comp = {r.host: r.compute_time_s for r in latest}
        comm = {r.host: r.comm_time_s for r in latest}
        comp_thr = self.expected_compute_s * self.threshold_factor
        comm_thr = max(self.expected_comm_s * self.threshold_factor,
                       self.expected_comm_s + 0.05)

        comp_abnormal = sorted(
            set(self.cross_host.lagging_hosts(comp))
            | {h for h, v in comp.items() if v > comp_thr})
        hung_hosts = sorted(r.host for r in latest if r.incomplete)
        crashed_hosts = sorted(r.host for r in latest if r.started == 0)
        comm_abnormal = sorted(
            set(self.cross_host.lagging_hosts(comm))
            | {h for h, v in comm.items() if v > comm_thr}
            | set(hung_hosts))

        err_cqes = self.store.err_cqes_for_job(diagnosis.job)
        if crashed_hosts:
            # A dead process (no work requests at all) is a computation
            # anomaly even though peers see communication timeouts.
            diagnosis.anomaly_kind = "computation"
            diagnosis.abnormal_hosts = crashed_hosts
            diagnosis.note(
                "NCCL timeline: computation abnormal on "
                f"{diagnosis.abnormal_hosts}")
        elif hung_hosts:
            # A stuck collective (started > finished) is communication
            # territory regardless of any compute-time wobble.
            diagnosis.anomaly_kind = "communication"
            diagnosis.abnormal_hosts = hung_hosts
            diagnosis.note(
                "NCCL timeline: collective incomplete on "
                f"{hung_hosts}")
        elif comp_abnormal and not err_cqes and not comm_abnormal:
            diagnosis.anomaly_kind = "computation"
            diagnosis.abnormal_hosts = comp_abnormal
            diagnosis.note(
                "NCCL timeline: computation abnormal on "
                f"{diagnosis.abnormal_hosts}")
        elif err_cqes or comm_abnormal:
            diagnosis.anomaly_kind = "communication"
            diagnosis.abnormal_hosts = comm_abnormal or sorted(
                {e.host for e in err_cqes})
            diagnosis.note(
                "NCCL timeline: communication time abnormal on "
                f"{diagnosis.abnormal_hosts or 'err-CQE reporters'}")
        elif comp_abnormal:
            diagnosis.anomaly_kind = "computation"
            diagnosis.abnormal_hosts = comp_abnormal
            diagnosis.note(
                "NCCL timeline: computation abnormal on "
                f"{diagnosis.abnormal_hosts}")

    # -- branch 1: computation --------------------------------------------------
    def _branch_computation(self, diagnosis: Diagnosis, latest) -> None:
        hosts = diagnosis.abnormal_hosts
        if len(hosts) == 1:
            host = hosts[0]
            fatal = self.store.syslogs_for(host, fatal_only=True)
            diagnosis.note(
                f"physical layer: checking device logs on {host}")
            if fatal:
                diagnosis.root_cause_device = host
                diagnosis.root_cause_layer = Layer.PHYSICAL
                diagnosis.inferred_cause = self._match_signature(
                    fatal[-1].message)
                diagnosis.recommended_action = (
                    "isolate node, load checkpoint, restart job")
                diagnosis.note(
                    f"fatal log matched: {fatal[-1].message!r}")
            else:
                sensors = self.store.sensors_for(host)
                if sensors and (sensors[-1].ecc_errors
                                or sensors[-1].pcie_errors):
                    diagnosis.root_cause_device = host
                    diagnosis.root_cause_layer = Layer.PHYSICAL
                    diagnosis.inferred_cause = (
                        "memory" if sensors[-1].ecc_errors
                        else "pcie-anomaly")
                    diagnosis.recommended_action = (
                        "isolate node for offline hardware testing")
                    diagnosis.note("sensor counters abnormal on host")
                else:
                    diagnosis.inferred_cause = "unknown"
                    diagnosis.recommended_action = (
                        "run offline toolset on the node")
        else:
            # Multiple devices: empirically software / user code (§3.3).
            error_logs = [
                log for host in hosts
                for log in self.store.syslogs_for(host)
            ]
            diagnosis.root_cause_layer = Layer.APPLICATION
            diagnosis.inferred_cause = (
                self._match_signature(error_logs[-1].message)
                if error_logs else "user-code")
            diagnosis.recommended_action = (
                "software/user-code alarm: manual intervention to halt "
                "or continue")
            diagnosis.note(
                f"computation anomalies on {len(hosts)} devices: "
                "typical of software or user code")

    # -- branch 2: communication --------------------------------------------------
    def _branch_communication(self, diagnosis: Diagnosis, job: str,
                              latest) -> None:
        err_cqes = self.store.err_cqes_for_job(job)
        if err_cqes:
            diagnosis.note(
                f"transport layer: {len(err_cqes)} errCQE event(s) on "
                "job QPs")
            device_paths, link_paths = [], []
            for event in err_cqes:
                # Consult the path as it was when the error struck; the
                # flow may have been rerouted since.
                record = self.store.path_for(event.five_tuple,
                                             before_s=event.time_s)
                if record is not None:
                    device_paths.append(record.devices)
                    link_paths.append(record.link_ids)
            failure = self._overlap_failure(device_paths, link_paths)
            failure_cause = (self._device_cause(failure)
                             if failure is not None else None)
            # A log-confirmed shared network element outranks the
            # common-endpoint heuristic (one bad switch on a small
            # job's only path can masquerade as a host NIC problem).
            if failure is not None \
                    and failure_cause != "network-device-failure":
                diagnosis.root_cause_device = failure
                diagnosis.root_cause_layer = Layer.NETWORK
                diagnosis.inferred_cause = failure_cause
                diagnosis.recommended_action = (
                    "switch affected flows to alternate paths "
                    "(UDP source port change); repair device")
                diagnosis.note(
                    "path overlap of affected flows pinpoints "
                    f"{failure} (log-confirmed)")
                return
            # If every failed QP touches one common host endpoint, the
            # problem is that host's NIC, not a shared network element.
            common_host = self._common_endpoint(err_cqes)
            if common_host is not None:
                diagnosis.root_cause_device = common_host
                diagnosis.root_cause_layer = Layer.TRANSPORT
                fatal = self.store.syslogs_for(common_host,
                                               fatal_only=True)
                diagnosis.inferred_cause = (
                    self._match_signature(fatal[-1].message) if fatal
                    else "nic-error")
                diagnosis.recommended_action = (
                    "isolate node, replace NIC, restart job")
                diagnosis.note(
                    "all failed QPs share one endpoint: NIC on "
                    f"{common_host}")
                return
            if failure is not None:
                diagnosis.root_cause_device = failure
                diagnosis.root_cause_layer = Layer.NETWORK
                diagnosis.inferred_cause = "network-device-failure"
                diagnosis.recommended_action = (
                    "switch affected flows to alternate paths "
                    "(UDP source port change); repair device")
                diagnosis.note(
                    "path overlap of affected flows pinpoints "
                    f"{failure}")
                return
            diagnosis.inferred_cause = "network-device-failure"
            diagnosis.recommended_action = (
                "no dominant overlap: run offline link diagnostics")
            diagnosis.note("errCQE paths share no dominant element")
            return

        # No errors: inspect QP rates of the job's QPs.
        slow_tuples = self._slow_qps(job)
        if slow_tuples:
            diagnosis.note(
                f"transport layer: {len(slow_tuples)} QP(s) below "
                f"{_QP_RATE_FRACTION:.0%} of link bandwidth")
            int_records = [
                record for five_tuple in slow_tuples
                if (record := self.store.int_ping_for(five_tuple))
                is not None
            ]
            hotspots = find_hotspots(int_records)
            if hotspots:
                hotspot = hotspots[0]
                diagnosis.note(
                    "network layer: INT per-hop delay flags "
                    f"{hotspot.upstream} -> {hotspot.downstream} "
                    f"({hotspot.latency_us:.0f} us)")
                self._confirm_with_counters(diagnosis, hotspot)
                return
        if diagnosis.manifestation is Manifestation.FAIL_HANG:
            hung = [r.host for r in latest if r.incomplete]
            if hung:
                host = hung[0]
                fatal = self.store.syslogs_for(host, fatal_only=True)
                error_logs = [
                    log for hung_host in hung
                    for log in self.store.syslogs_for(hung_host)
                ]
                if fatal:
                    diagnosis.root_cause_device = host
                    diagnosis.root_cause_layer = Layer.PHYSICAL
                    diagnosis.inferred_cause = self._match_signature(
                        fatal[-1].message)
                    diagnosis.recommended_action = (
                        "isolate node, load checkpoint, restart job")
                elif len(hung) > 1 and error_logs:
                    # Hangs on several devices with application-level
                    # error logs: software/user code, same heuristic
                    # as Branch #1's multi-device rule.
                    diagnosis.root_cause_layer = Layer.APPLICATION
                    diagnosis.abnormal_hosts = hung
                    diagnosis.inferred_cause = self._match_signature(
                        error_logs[-1].message)
                    diagnosis.recommended_action = (
                        "software/user-code alarm: manual "
                        "intervention to halt or continue")
                else:
                    diagnosis.abnormal_hosts = hung
                    diagnosis.inferred_cause = "ccl-bug"
                    diagnosis.recommended_action = (
                        "no diagnostic logs: reproduce with offline "
                        "toolset (template model end-to-end test)")
                diagnosis.note(
                    f"hang localized to host(s) {hung} via work-request "
                    "progress counts")

    def _slow_qps(self, job: str) -> List:
        meta = self.store.jobs.get(job)
        if meta is None:
            return []
        threshold = self.nic_port_gbps * _QP_RATE_FRACTION
        slow = []
        for qp in meta.qps():
            samples = self.store.qp_rates_for(qp.five_tuple)
            if not samples:
                continue
            latest = samples[-1]
            if 0.0 < latest.rate_gbps < threshold:
                slow.append(qp.five_tuple)
        return slow

    def _confirm_with_counters(self, diagnosis: Diagnosis,
                               hotspot) -> None:
        counters = self.store.counters_for_device(hotspot.upstream)
        pfc = max((c.pfc_pause for c in counters), default=0.0)
        diagnosis.root_cause_device = hotspot.upstream
        diagnosis.root_cause_layer = Layer.PHYSICAL
        if pfc > 0:
            diagnosis.note(
                f"physical layer: PFC pause counters on "
                f"{hotspot.upstream} far above normal ({pfc:.0f})")
            diagnosis.inferred_cause = "persistent-congestion"
        else:
            diagnosis.inferred_cause = "congestion"
        # Consult the pluggable physical-layer detectors (Appendix D);
        # e.g. the PCIe-PFC-storm detector added after the §5 incident.
        for device in (hotspot.upstream, hotspot.downstream):
            finding = self.detectors.inspect(self.store, device)
            if finding is not None:
                diagnosis.root_cause_device = finding.device
                diagnosis.inferred_cause = finding.cause
                diagnosis.recommended_action = finding.action
                diagnosis.note(
                    f"physical-layer detector {finding.detector!r}: "
                    f"{finding.note}")
                return
        # Switch misconfiguration leaves a (non-fatal) log trail on one
        # of the congested link's endpoints.
        for device in (hotspot.upstream, hotspot.downstream):
            logs = self.store.syslogs_for(device)
            if logs:
                cause = self._match_signature(logs[-1].message)
                if cause != "unknown":
                    diagnosis.inferred_cause = cause
                    diagnosis.root_cause_device = device
                    diagnosis.note(
                        f"device log on {device} matches: "
                        f"{logs[-1].message!r}")
                    break
        diagnosis.recommended_action = (
            "global rerouting: modify UDP source ports of congested "
            "flows")

    # -- helpers --------------------------------------------------------------
    @staticmethod
    def _host_of_ip(ip: str) -> str:
        # Telemetry IPs come from outside: anything not a NIC name is
        # taken as a host name already.
        nic = parse_nic(ip)
        return ip if nic is None else nic[0]

    def _common_endpoint(self, err_cqes) -> Optional[str]:
        """The single host every failed QP touches, if there is one."""
        common: Optional[set] = None
        for event in err_cqes:
            endpoints = {
                self._host_of_ip(event.five_tuple.src_ip),
                self._host_of_ip(event.five_tuple.dst_ip),
            }
            common = endpoints if common is None else common & endpoints
            if not common:
                return None
        if common is not None and len(common) == 1:
            return next(iter(common))
        return None

    def _overlap_failure(self, device_paths, link_paths
                         ) -> Optional[str]:
        """Most likely shared failure element, log-disambiguated.

        A failed *link* makes both its endpoints equally-shared devices;
        a failed *switch* is shared by more paths than any one of its
        links.  When several elements tie (e.g. a single affected flow,
        where every hop is "shared"), physical-layer logs break the tie:
        the element with a recognizable fault signature wins.
        """
        if not device_paths:
            return None
        from .path_overlap import overlap_devices, overlap_links
        device_ranked = overlap_devices(device_paths)
        link_ranked = overlap_links([p for p in link_paths if p])
        n = len(device_paths)

        candidates: List[str] = []
        if link_ranked:
            top = link_ranked[0][1]
            if top / n >= 0.6:
                candidates.extend(
                    f"link:{link_id}"
                    for link_id, count in link_ranked if count == top)
        if device_ranked:
            top = device_ranked[0][1]
            if top / n >= 0.6:
                candidates.extend(
                    device for device, count in device_ranked
                    if count == top)
        if not candidates:
            return None
        # Log-based disambiguation across the tied candidates.
        for candidate in candidates:
            if self._device_cause(candidate) != "network-device-failure":
                return candidate
        return candidates[0]

    @staticmethod
    def _match_signature(message: str) -> str:
        for keyword, cause in _LOG_SIGNATURES.items():
            if keyword in message:
                return cause
        return "unknown"

    def _device_cause(self, device: str) -> str:
        logs = self.store.syslogs_for(device)
        if logs:
            cause = self._match_signature(logs[-1].message)
            if cause != "unknown":
                return cause
        # Check logs on links' peer names embedded in messages.
        for record in self.store.syslogs:
            if device in record.message:
                cause = self._match_signature(record.message)
                if cause != "unknown":
                    return cause
        return "network-device-failure"
