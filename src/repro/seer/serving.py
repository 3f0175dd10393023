"""Inference serving simulation: continuous batching over Seer costs.

Figures 14c/d and 15b treat inference as two phases — a compute-bound
prefill and a memory-bound decode.  A serving deployment interleaves
them across many requests (continuous batching); this module simulates
that interleaving with per-phase step costs taken from Seer forecasts,
producing the serving metrics an operator sizes deployments with:
time-to-first-token (TTFT), time-per-output-token (TPOT), and token
throughput as functions of offered load.

The simulation is iteration-granular, matching how serving engines
schedule: each engine step either prefills an admitted request or
advances every running request by one token; requests admit when a
batch slot frees up.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .forecaster import Seer
from .models.config import ModelConfig, ParallelismConfig

__all__ = ["ServingConfig", "RequestDraw", "RequestRecord",
           "ServingReport", "ServingSimulator", "draw_requests"]


@dataclass(frozen=True)
class ServingConfig:
    """A serving deployment and its workload.

    ``seed`` may be an int or a string; all randomness is drawn from a
    ``random.Random(f"serving:{seed}:{stream}")`` string-keyed stream so
    results are independent of ``PYTHONHASHSEED`` and bit-identical
    across processes (the PR-3 draw convention).
    """

    batch_max: int = 16
    context_len: int = 2048
    output_len_mean: int = 256
    arrival_rate_per_s: float = 2.0
    duration_s: float = 60.0
    seed: Union[int, str] = 0


@dataclass(frozen=True)
class RequestDraw:
    """One request's pre-drawn workload: when it arrives, how long it is.

    Output length is attached at draw time (not during the simulation
    loop) so the same request population can be replayed under a
    different offered load — e.g. the rate-doubling metamorphic oracle
    superposes a second independent draw onto a base draw and compares
    per-request latencies.
    """

    arrival_s: float
    output_tokens: int


def draw_requests(config: ServingConfig,
                  stream: str = "requests") -> List[RequestDraw]:
    """Seeded Poisson arrivals with exponential output lengths.

    ``stream`` qualifies the seed string so callers can draw additional
    independent request populations from the same config (Poisson
    superposition: the union of two rate-λ draws is a rate-2λ draw).
    """
    rng = random.Random(f"serving:{config.seed}:{stream}")
    draws: List[RequestDraw] = []
    if config.arrival_rate_per_s <= 0.0:
        return draws
    t = 0.0
    while True:
        t += rng.expovariate(config.arrival_rate_per_s)
        if t > config.duration_s:
            break
        tokens = max(1, int(rng.expovariate(
            1.0 / config.output_len_mean)))
        draws.append(RequestDraw(arrival_s=t, output_tokens=tokens))
    return draws


@dataclass
class RequestRecord:
    """One served request's lifecycle timestamps."""

    request_id: int
    arrival_s: float
    prefill_start_s: float = -1.0
    first_token_s: float = -1.0
    finish_s: float = -1.0
    output_tokens: int = 0

    @property
    def ttft_s(self) -> float:
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        decode_tokens = max(1, self.output_tokens - 1)
        return (self.finish_s - self.first_token_s) / decode_tokens


@dataclass
class ServingReport:
    """Aggregate serving metrics."""

    completed: List[RequestRecord] = field(default_factory=list)
    arrived: int = 0
    duration_s: float = 0.0

    @property
    def completion_rate(self) -> float:
        return len(self.completed) / self.arrived if self.arrived \
            else 1.0

    def mean_ttft_s(self) -> float:
        if not self.completed:
            return float("inf")
        return float(np.mean([r.ttft_s for r in self.completed]))

    def p99_ttft_s(self) -> float:
        if not self.completed:
            return float("inf")
        return float(np.percentile([r.ttft_s for r in self.completed],
                                   99))

    def mean_tpot_s(self) -> float:
        if not self.completed:
            return float("inf")
        return float(np.mean([r.tpot_s for r in self.completed]))

    def output_tokens_per_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return sum(r.output_tokens for r in self.completed) \
            / self.duration_s


class ServingSimulator:
    """Continuous-batching engine driven by Seer step costs."""

    def __init__(self, seer: Seer, model: ModelConfig,
                 parallel: ParallelismConfig,
                 config: Optional[ServingConfig] = None,
                 cost_cache: Optional[Dict[str, Dict[int, float]]] = None):
        """``cost_cache`` shares memoized per-batch step costs between
        simulator instances; callers must only share it across
        simulators with the same (model, parallel, context_len) since
        the costs are keyed by batch size alone.
        """
        self.seer = seer
        self.model = model
        self.parallel = parallel
        self.config = config or ServingConfig()
        if cost_cache is None:
            cost_cache = {}
        self._prefill_s: Dict[int, float] = cost_cache.setdefault(
            "prefill_s", {})
        self._decode_s: Dict[int, float] = cost_cache.setdefault(
            "decode_s", {})

    # -- Seer-derived step costs -------------------------------------------
    def _forecast_steps(self, batch: int) -> None:
        if batch in self._decode_s:
            return
        forecast = self.seer.forecast_inference(
            self.model, self.parallel, batch=batch,
            context_len=self.config.context_len)
        self._prefill_s[batch] = forecast.prefill_time_s / batch
        self._decode_s[batch] = forecast.decode_time_per_token_s

    def prefill_step_s(self) -> float:
        """Cost of prefilling one request (single-sequence prefill)."""
        self._forecast_steps(1)
        return self._prefill_s[1]

    def decode_step_s(self, batch: int) -> float:
        """Cost of one decode step at the current running batch."""
        batch = max(1, min(batch, self.config.batch_max))
        self._forecast_steps(batch)
        return self._decode_s[batch]

    # -- simulation -----------------------------------------------------------
    def run(self,
            requests: Optional[Sequence[RequestDraw]] = None
            ) -> ServingReport:
        """Simulate the deployment over a request population.

        ``requests`` defaults to :func:`draw_requests` on the config;
        passing an explicit (arrival-sorted) population lets callers
        replay the same requests under perturbed load.

        Each loop turn admits arrivals, then either prefills one
        waiting request or decodes a run of steps at the current
        batch.  A run ends at the next finish or, when a slot is free,
        at the first step at or after which the next arrival is due:
        between those events the batch, and so the step cost, cannot
        change.  Timestamps, finish order and the order in which step
        costs are first forecast are those of a loop that decodes one
        step per turn.
        """
        cfg = self.config
        if requests is None:
            requests = draw_requests(cfg)

        report = ServingReport(arrived=len(requests),
                               duration_s=cfg.duration_s)
        waiting: Deque[RequestRecord] = deque()
        # Every decode step adds one token to every running request, so
        # a request admitted after decode step ``decodes`` that wants T
        # tokens (it holds 1 after prefill) finishes at decode step
        # ``decodes + max(1, T - 1)`` holding max(2, T) tokens.  The
        # heap keeps (finish step, admission order, record, tokens):
        # requests finishing at one step leave in admission order.
        running: List[Tuple[int, int, RequestRecord, int]] = []
        next_arrival = admitted = decodes = 0
        now = 0.0

        while now < cfg.duration_s or running or waiting:
            # Admit arrivals up to the current time.
            while next_arrival < len(requests) \
                    and requests[next_arrival].arrival_s <= now:
                waiting.append(RequestRecord(
                    request_id=next_arrival,
                    arrival_s=requests[next_arrival].arrival_s))
                next_arrival += 1
            if not running and not waiting:
                if next_arrival >= len(requests):
                    break
                now = requests[next_arrival].arrival_s
                continue

            # Scheduler: prefill one waiting request if a slot is free
            # (prefill-prioritized continuous batching), else decode.
            if waiting and len(running) < cfg.batch_max:
                record = waiting.popleft()
                record.prefill_start_s = max(now, record.arrival_s)
                now = record.prefill_start_s + self.prefill_step_s()
                record.first_token_s = now
                record.output_tokens = 1
                target = requests[record.request_id].output_tokens
                heapq.heappush(running, (decodes + max(1, target - 1),
                                         admitted, record,
                                         max(2, target)))
                admitted += 1
                continue

            # Decode up to the next finish or, with a slot free, the
            # next arrival; adding the step once per step keeps every
            # timestamp's bits.
            step = self.decode_step_s(len(running))
            finish = running[0][0]
            due = requests[next_arrival].arrival_s \
                if len(running) < cfg.batch_max \
                and next_arrival < len(requests) else math.inf
            now += step
            decodes += 1
            while decodes < finish and now < due:
                now += step
                decodes += 1
            while running and running[0][0] <= decodes:
                _, _, record, tokens = heapq.heappop(running)
                record.output_tokens = tokens
                record.finish_s = now
                report.completed.append(record)

        report.duration_s = max(cfg.duration_s, now)
        return report
