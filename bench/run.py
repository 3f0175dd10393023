"""Run the benchmark: spawn measurement processes, aggregate, report.

``python -m bench --seed N [--workload NAME] [--seconds S] [--trace 0|1]``

For one workload, fresh child processes (:mod:`bench.child`) each set
up and time passes of a fixed amount of work, until at least the
workload's :attr:`~bench.workloads.Workload.processes` have run and
their passes add up to ``--seconds``.  ``setup_s`` and ``peak_rss_mb``
are medians over the processes, ``run_s`` the median over all passes;
both times are then
scaled by the median :func:`~bench.child.calibrate` of the run to
the reference speed :data:`REFERENCE_S`.  With ``--trace 1``
one more child runs one pass with the layer tracer installed, and only
the per-layer metrics are reported.
Every metric prints as ``name value unit``; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A JSON
record with the raw samples and the machine stamp goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import RESULTS, ROOT, SRC
from .trace import SOLVER_COUNTERS, SPANS
from .workloads import ALL_WORKLOADS, WORKLOADS, workload

#: stop starting processes after this long, whatever ``--seconds`` says.
SPAWN_CAP_S = 110.0
#: a workload's whole run, traced child included, ends within this.
DEADLINE_S = 165.0
#: what one :func:`bench.child.calibrate` takes at the reference
#: speed, about that of one 2.1 GHz Xeon vCPU on a quiet host.
REFERENCE_S = 0.18

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)

Metrics = Tuple[Tuple[str, str], ...]


def _span_metrics(spans) -> Metrics:
    return tuple((f"{span}.{kind}", unit) for span in spans
                 for kind, unit in (("calls", "count"), ("total_s", "s"),
                                    ("self_s", "s")))


#: per-layer metrics of the workloads outside BENCHMARK.json, reported
#: on top of :data:`PER_LAYER`: the spans only they enter, and their
#: own counters.
EXTRA_LAYER: Dict[str, Metrics] = {
    "twin-http": _span_metrics((
        "monitoring.census", "twin.session_init", "twin.advance",
        "twin.submit")) + (
        ("twin.advance_ms_p50", "ms"),
        ("twin.advance_ms_p90", "ms"),
        ("twin.http_ms_p50", "ms"),
        ("twin.action_ms_p50", "ms"),
        ("twin.read_ms_p50", "ms"),
    ),
    "validate-sweep": _span_metrics((
        "farm.run", "farm.cache_get", "farm.cache_put")) + (
        ("farm.exec_s", "s"),
        ("farm.overhead_s", "s"),
        ("farm.utilization", "fraction"),
        ("farm.warm_s", "s"),
    ) + tuple((f"validation.{profile}.exec_s", "s") for profile in (
        "batch", "timed", "degrade", "faulted", "collective",
        "hierarchical", "faulted-hierarchical", "serving")),
}
_EXTRA = {metric for extra in EXTRA_LAYER.values() for metric in extra}

#: what every workload reports with ``--trace 1``; BENCHMARK.json lists
#: exactly these.
PER_LAYER: Metrics = tuple(
    metric for metric in _span_metrics(span for span, _, _ in SPANS)
    if metric not in _EXTRA) + tuple(
    (name, "count") for name in SOLVER_COUNTERS.values()) + (
    ("routing.hops_cache_hits", "count"),
    ("routing.hops_cache_misses", "count"),
    ("hierarchy.engine_hosts", "count"),
    ("hierarchy.fold_factor", "x"),
    ("hierarchy.engine_sims", "count"),
    ("hierarchy.memo_hits", "count"),
    ("trace.overhead_frac", "fraction"),
)


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile that leaves at least ten samples beyond
    it: p98 needs 500 samples, p90 needs 100."""
    ordered = sorted(values)
    rank = math.ceil(percent / 100.0 * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{percent:g} of {len(ordered)} samples has "
                         f"{len(ordered) - rank} beyond it; need 10")
    return ordered[rank - 1]


# -- processes ---------------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               # nothing may fall back to the user's cache directory
               REPRO_FARM_CACHE=str(RESULTS / "farm-cache"))
    return env


def spawn(name: str, seed: int, budget_s: float, trace: bool,
          timeout_s: float, toy: bool = False) -> Dict[str, Any]:
    """Run one :mod:`bench.child` and return its record."""
    t0 = time.monotonic()
    command = [sys.executable, "-m", "bench.child", name, str(seed),
               repr(t0), repr(budget_s), "1" if trace else "0"]
    proc = subprocess.Popen(command + (["--toy"] if toy else []),
                            cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"passes": [], "error": f"timed out after {timeout_s:.0f} s"}
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"passes": [],
                "error": f"child exited {proc.returncode} without a record"}


def collect(name: str, seed: int, seconds: float, trace: bool,
            toy: bool = False) -> Tuple[List[Dict], Optional[Dict]]:
    """Untraced records until the workload's
    :attr:`~bench.workloads.Workload.processes` have run and their
    passes add up to ``seconds``, then the traced one if asked."""
    processes = workload(name).processes
    started = time.monotonic()
    records: List[Dict[str, Any]] = []
    measured = 0.0
    while len(records) < processes or measured < seconds:
        elapsed = time.monotonic() - started
        errors = sum("error" in record for record in records)
        if records and elapsed > SPAWN_CAP_S or errors >= processes:
            break
        record = spawn(name, seed, seconds / processes, False,
                       DEADLINE_S - elapsed, toy)
        records.append(record)
        measured += sum(p["run_s"] for p in record["passes"])
    traced = None
    if trace:
        traced = spawn(name, seed, 0.0, True,
                       DEADLINE_S - (time.monotonic() - started), toy)
    return records, traced


# -- aggregation -------------------------------------------------------------

def _passes(records: List[Dict]) -> List[Dict]:
    return [p for record in records for p in record["passes"]]


def _reference(records: List[Dict], golden: Dict[str, str],
               seed: int) -> Optional[str]:
    """The digest every pass must produce: the golden one when this
    seed has it, else the most common one seen."""
    if str(seed) in golden:
        return golden[str(seed)]
    digests = [p["digest"] for p in _passes(records)]
    return max(digests, key=digests.count) if digests else None


def _tally(records: List[Dict], reference: Optional[str]
           ) -> Tuple[int, int]:
    """(attempted, failed) ops: a pass with the wrong digest fails all
    its ops; a crash, or a twin server that does not exit 130, is one
    more failed op."""
    attempted = failed = 0
    for record in records:
        for p in record["passes"]:
            attempted += p["attempted"]
            failed += p["attempted"] if p["digest"] != reference \
                else p["failed"]
        broken = ("error" in record) + record.get("teardown_failed", 0)
        attempted += broken
        failed += broken
    return attempted, failed


def _merged_trace(record: Dict) -> Dict[str, Any]:
    """Child and (for the twin) server tracer reports, summed."""
    merged: Dict[str, Any] = {"spans": {}, "counters": {},
                              "durations": {}}
    for report in (record.get("trace_report"),
                   record.get("server_trace")):
        if not report:
            continue
        for span, row in report["spans"].items():
            into = merged["spans"].setdefault(
                span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
        for key, value in report["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for key, values in report["durations"].items():
            merged["durations"].setdefault(key, []).extend(values)
    return merged


def _per_layer(name: str, records: List[Dict], traced: Dict
               ) -> Dict[str, float]:
    """Spans and counters of the traced process (set-up plus one pass),
    twin latencies, and the tracing overhead."""
    trace = _merged_trace(traced)
    (traced_pass,) = traced["passes"]
    values: Dict[str, float] = {}
    for span, _, _ in SPANS:
        row = trace["spans"].get(span, {})
        for kind in ("calls", "total_s", "self_s"):
            values[f"{span}.{kind}"] = row.get(kind, 0)
    values.update(trace["counters"])
    values.update(traced_pass["counters"])
    latencies = traced_pass["latencies"]
    if latencies:
        pooled = [s for p in _passes(records)
                  for s in p["latencies"]["advance"]]
        server = trace["durations"]["twin.advance"]
        values.update({
            "twin.advance_ms_p50": 1e3 * statistics.median(pooled),
            "twin.advance_ms_p90": 1e3 * nearest_rank(pooled, 90),
            "twin.http_ms_p50": 1e3 * statistics.median(
                [client - span for client, span
                 in zip(latencies["advance"], server)]),
            "twin.action_ms_p50": 1e3 * statistics.median(
                latencies["action"]),
            "twin.read_ms_p50": 1e3 * statistics.median(
                latencies["read"]),
        })
    values["trace.overhead_frac"] = traced_pass["run_s"] / statistics.median(
        p["run_s"] for p in _passes(records)) - 1.0
    return {metric: values.get(metric, 0)
            for metric, _ in PER_LAYER + EXTRA_LAYER.get(name, ())}


def summarize(name: str, seed: int, records: List[Dict],
              traced: Optional[Dict], golden: Dict[str, str]
              ) -> Dict[str, Any]:
    """The result object for one workload run, plus ``error_rate``."""
    reference = _reference(records, golden, seed)
    everything = records + ([traced] if traced else [])
    attempted, failed = _tally(everything, reference)
    ok = [r for r in records if r["passes"] and r["calibration_s"]]
    if not ok or (traced is not None and not traced["passes"]):
        errors = [r["error"] for r in everything if "error" in r]
        raise RuntimeError(f"{name}: no pass completed\n"
                           + "\n".join(errors))
    # The machine's speed over the run scales both times to the speed at
    # which one calibration takes REFERENCE_S.
    measured = {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "run_s": statistics.median(p["run_s"] for p in _passes(ok)),
        "calibration_s": statistics.median(
            c for r in ok for c in r["calibration_s"]),
    }
    if traced is None:
        scale = REFERENCE_S / measured["calibration_s"]
        values = {
            "setup_s": measured["setup_s"] * scale,
            "run_s": measured["run_s"] * scale,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        }
        units = dict(END_TO_END)
    else:
        values = _per_layer(name, records, traced)
        units = dict(PER_LAYER + EXTRA_LAYER.get(name, ()))
    return {
        "correct": failed == 0 and reference is not None,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "measured": measured,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
    }


# -- machine stamp -----------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_stamp() -> Dict[str, Any]:
    sha = _git("rev-parse", "HEAD")
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": bool(_git("status", "--porcelain",
                               "--untracked-files=no")) if sha else None,
        "loadavg_start": os.getloadavg(),
    }


# -- entry point -------------------------------------------------------------

def load_golden() -> Dict[str, Dict[str, str]]:
    """Workload -> seed -> the digest a pass must produce."""
    return json.loads((Path(__file__).parent / "golden.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 golden: Dict[str, Dict[str, str]], machine: Dict
                 ) -> Dict[str, Any]:
    records, traced = collect(name, seed, seconds, trace)
    result = summarize(name, seed, records, traced, golden.get(name, {}))
    first = next((r for r in records if "solver" in r), {})
    machine = dict(machine, loadavg_end=os.getloadavg(),
                   numpy=first.get("numpy"), solver=first.get("solver"))
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / (f"{name}-seed{seed}-trace{int(trace)}-"
                      f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds,
         "trace": trace, "machine": machine, **result,
         "records": records, "traced": traced}, indent=1))
    print(f"== {name} seed {seed} ({len(records)} processes, "
          f"{len(_passes(records))} passes, "
          f"{result['failed']}/{result['attempted']} failed) -> "
          f"{path.relative_to(ROOT)}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']} {entry['unit']}")
    print(f"error_rate {result['error_rate']} fraction")
    for metric, value in result["measured"].items():
        print(f"measured.{metric} {value} s")
    if trace:
        print(layer_table(result["metrics"]))
    return result


def layer_table(metrics: Dict[str, Dict[str, Any]]) -> str:
    """Spans that ran, by self time, with each one's share of the
    summed self time."""
    rows = [(span, metrics[f"{span}.calls"]["value"],
             metrics[f"{span}.total_s"]["value"],
             metrics[f"{span}.self_s"]["value"])
            for span, _, _ in SPANS
            if metrics.get(f"{span}.calls", {}).get("value")]
    rows.sort(key=lambda row: -row[3])
    summed = sum(row[3] for row in rows) or 1.0
    lines = [f"{'layer':<22}{'calls':>10}{'total_s':>11}{'self_s':>11}"
             f"{'self%':>8}"]
    lines += [f"{span:<22}{calls:>10}{total:>11.3f}{own:>11.3f}"
              f"{100 * own / summed:>8.1f}"
              for span, calls, total, own in rows]
    return "\n".join(lines)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w.name for w in ALL_WORKLOADS],
                        help="one workload (default: the benchmark's, "
                             "in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="minimum total timed pass time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1 (or bare --trace): report per-layer "
                             "metrics from an extra traced process")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program under test at {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once so no process pays it inside set-up.
    compileall.compile_dir(str(SRC), quiet=1)
    machine = machine_stamp()
    print("machine " + json.dumps(machine, sort_keys=True))
    golden = load_golden()
    names = [args.workload] if args.workload \
        else [w.name for w in WORKLOADS]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), golden, machine)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
    if args.workload:
        final = results[args.workload]
        line = {key: final[key]
                for key in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0
