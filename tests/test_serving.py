"""Tests for the continuous-batching serving simulator."""

import heapq
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seer import (
    HUNYUAN_MOE,
    LLAMA3_70B,
    NetworkSuite,
    ParallelismConfig,
    Seer,
    ServingConfig,
    ServingSimulator,
    draw_requests,
)
from repro.seer.serving import RequestDraw, RequestRecord, ServingReport

from .hashseed import outputs_under_hash_seeds

PARALLEL = ParallelismConfig(tp=8, pp=1, dp=1, ep=16)


@pytest.fixture(scope="module")
def seer():
    return Seer(gpu="H800", network=NetworkSuite())


def _run(seer, rate, duration=90.0, batch_max=16, model=HUNYUAN_MOE,
         output_len=128, seed=0):
    config = ServingConfig(arrival_rate_per_s=rate,
                           duration_s=duration, batch_max=batch_max,
                           output_len_mean=output_len, seed=seed)
    return ServingSimulator(seer, model, PARALLEL, config).run()


class TestBasics:
    def test_all_requests_eventually_complete(self, seer):
        report = _run(seer, rate=1.0)
        assert report.completion_rate == 1.0
        assert report.arrived > 0

    def test_deterministic_with_seed(self, seer):
        a = _run(seer, rate=1.0, seed=5)
        b = _run(seer, rate=1.0, seed=5)
        assert [r.finish_s for r in a.completed] \
            == [r.finish_s for r in b.completed]

    def test_request_timestamps_ordered(self, seer):
        report = _run(seer, rate=1.0)
        for record in report.completed:
            assert record.arrival_s <= record.prefill_start_s
            assert record.prefill_start_s < record.first_token_s
            assert record.first_token_s <= record.finish_s

    def test_idle_system_has_low_ttft(self, seer):
        report = _run(seer, rate=0.2)
        # TTFT ~ one prefill at batch 1.
        simulator = ServingSimulator(seer, HUNYUAN_MOE, PARALLEL,
                                     ServingConfig())
        assert report.mean_ttft_s() \
            < 3 * simulator.prefill_step_s() + 0.5


class TestQueueingBehaviour:
    def test_ttft_explodes_past_saturation(self, seer):
        light = _run(seer, rate=0.5)
        heavy = _run(seer, rate=8.0)
        assert heavy.mean_ttft_s() > 10 * light.mean_ttft_s()

    def test_throughput_grows_with_load_then_saturates(self, seer):
        rates = (0.5, 2.0, 8.0, 16.0)
        throughputs = [
            _run(seer, rate=r).output_tokens_per_s() for r in rates
        ]
        assert throughputs[1] > throughputs[0]
        # Saturation: doubling offered load past the knee gains <2x.
        assert throughputs[3] < 1.9 * throughputs[2]

    def test_tpot_grows_with_batch(self, seer):
        simulator = ServingSimulator(seer, HUNYUAN_MOE, PARALLEL,
                                     ServingConfig())
        assert simulator.decode_step_s(16) > simulator.decode_step_s(1)

    def test_larger_batch_limit_raises_saturated_throughput(self, seer):
        small = _run(seer, rate=8.0, batch_max=4)
        large = _run(seer, rate=8.0, batch_max=32)
        assert large.output_tokens_per_s() \
            > small.output_tokens_per_s()

    def test_p99_at_least_mean(self, seer):
        report = _run(seer, rate=4.0)
        assert report.p99_ttft_s() >= report.mean_ttft_s()


class TestModels:
    def test_dense_model_served_too(self, seer):
        report = _run(seer, rate=1.0,
                      model=LLAMA3_70B.with_seq_len(2048))
        assert report.completion_rate == 1.0
        assert report.output_tokens_per_s() > 0


class TestRequestDraws:
    """The pre-drawn request population behind the simulator."""

    def test_arrivals_sorted_and_bounded(self):
        cfg = ServingConfig(arrival_rate_per_s=3.0, duration_s=40.0,
                            seed=2)
        draws = draw_requests(cfg)
        assert draws
        arrivals = [d.arrival_s for d in draws]
        assert arrivals == sorted(arrivals)
        assert all(0.0 < t <= cfg.duration_s for t in arrivals)
        assert all(d.output_tokens >= 1 for d in draws)

    def test_zero_rate_draws_nothing(self):
        cfg = ServingConfig(arrival_rate_per_s=0.0, seed=0)
        assert draw_requests(cfg) == []

    def test_streams_are_independent(self):
        cfg = ServingConfig(arrival_rate_per_s=3.0, duration_s=40.0,
                            seed=2)
        base = draw_requests(cfg)
        extra = draw_requests(cfg, stream="requests-double")
        assert base != extra
        # Same stream name replays the same population exactly.
        assert base == draw_requests(cfg)

    def test_string_and_int_seeds_are_distinct_streams(self):
        by_int = draw_requests(ServingConfig(arrival_rate_per_s=2.0,
                                             seed=7))
        by_str = draw_requests(ServingConfig(arrival_rate_per_s=2.0,
                                             seed="7"))
        # Both key the same string stream ("serving:7:requests"), so
        # int and str spellings of a seed agree — the PR-3 convention.
        assert by_int == by_str

    def test_explicit_population_replays_default(self, seer):
        cfg = ServingConfig(arrival_rate_per_s=1.0, duration_s=60.0,
                            seed=4)
        implicit = ServingSimulator(seer, HUNYUAN_MOE, PARALLEL,
                                    cfg).run()
        explicit = ServingSimulator(seer, HUNYUAN_MOE, PARALLEL,
                                    cfg).run(draw_requests(cfg))
        assert [(r.arrival_s, r.first_token_s, r.finish_s)
                for r in implicit.completed] \
            == [(r.arrival_s, r.first_token_s, r.finish_s)
                for r in explicit.completed]


def _per_token_run(sim, requests):
    """The per-token decode loop ``ServingSimulator.run`` replaced,
    kept as its oracle: every decode step visits every running request
    and adds one token to it."""
    cfg = sim.config
    report = ServingReport(arrived=len(requests),
                           duration_s=cfg.duration_s)
    waiting = deque()
    running = []
    target_tokens = {}
    next_arrival = 0
    now = 0.0
    while now < cfg.duration_s or running or waiting:
        while next_arrival < len(requests) \
                and requests[next_arrival].arrival_s <= now:
            draw = requests[next_arrival]
            record = RequestRecord(request_id=next_arrival,
                                   arrival_s=draw.arrival_s)
            target_tokens[record.request_id] = draw.output_tokens
            waiting.append(record)
            next_arrival += 1
        if not running and not waiting:
            if next_arrival >= len(requests):
                break
            now = requests[next_arrival].arrival_s
            continue
        if waiting and len(running) < cfg.batch_max:
            record = waiting.popleft()
            record.prefill_start_s = max(now, record.arrival_s)
            now = record.prefill_start_s + sim.prefill_step_s()
            record.first_token_s = now
            record.output_tokens = 1
            running.append(record)
            continue
        now += sim.decode_step_s(len(running))
        for record in running:
            record.output_tokens += 1
            if record.output_tokens >= target_tokens[record.request_id]:
                record.finish_s = now
                report.completed.append(record)
        running = [record for record in running
                   if record.output_tokens
                   < target_tokens[record.request_id]]
    report.duration_s = max(cfg.duration_s, now)
    return report


class TestDecodeLoopDifferential:
    """``run`` jumps to each request's finish step; the per-token loop
    it replaced must give an ``==`` report (every timestamp, token
    count and completion order)."""

    _COSTS = {}     # shared step costs: one model, parallelism, context

    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 32), rate=st.floats(0.0, 200.0),
           output_len=st.integers(1, 128), seed=st.integers(0, 2),
           duration=st.sampled_from([0.5, 2.0, 5.0]))
    def test_matches_per_token_loop(self, seer, batch, rate, output_len,
                                    seed, duration):
        config = ServingConfig(batch_max=batch, arrival_rate_per_s=rate,
                               output_len_mean=output_len,
                               duration_s=duration, seed=seed)
        sim = ServingSimulator(seer, HUNYUAN_MOE, PARALLEL, config,
                               cost_cache=self._COSTS)
        requests = draw_requests(config)
        assert sim.run(requests) == _per_token_run(sim, requests)

    def test_one_token_requests_hold_two(self, seer):
        """A request wanting one token still decodes one step."""
        config = ServingConfig(batch_max=4, duration_s=2.0)
        sim = ServingSimulator(seer, HUNYUAN_MOE, PARALLEL, config)
        requests = [RequestDraw(arrival_s=0.1 * i,
                                output_tokens=1 + i % 3)
                    for i in range(12)]
        report = sim.run(requests)
        assert sorted((r.request_id, r.output_tokens)
                      for r in report.completed) \
            == [(i, max(2, 1 + i % 3)) for i in range(12)]
        assert report == _per_token_run(sim, requests)


def _per_step_run(sim, requests):
    """The loop ``ServingSimulator.run`` had before it decoded in runs,
    kept as its oracle: one decode step per loop turn, its cost looked
    up at every step, finishes popped from a heap of finish steps."""
    cfg = sim.config
    report = ServingReport(arrived=len(requests),
                           duration_s=cfg.duration_s)
    waiting = deque()
    running = []
    next_arrival = admitted = decodes = 0
    now = 0.0
    while now < cfg.duration_s or running or waiting:
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
        if waiting and len(running) < cfg.batch_max:
            record = waiting.popleft()
            record.prefill_start_s = max(now, record.arrival_s)
            now = record.prefill_start_s + sim.prefill_step_s()
            record.first_token_s = now
            record.output_tokens = 1
            target = requests[record.request_id].output_tokens
            heapq.heappush(running, (decodes + max(1, target - 1),
                                     admitted, record, max(2, target)))
            admitted += 1
            continue
        now += sim.decode_step_s(len(running))
        decodes += 1
        while running and running[0][0] <= decodes:
            _, _, record, tokens = heapq.heappop(running)
            record.output_tokens = tokens
            record.finish_s = now
            report.completed.append(record)
    report.duration_s = max(cfg.duration_s, now)
    return report


class _MemoSeer:
    """A Seer whose inference forecasts are memoised, so every
    simulator can start from an empty cost cache cheaply."""

    def __init__(self, seer):
        self._seer = seer
        self._forecasts = {}

    def forecast_inference(self, model, parallel, batch, context_len):
        key = (batch, context_len)
        if key not in self._forecasts:
            self._forecasts[key] = self._seer.forecast_inference(
                model, parallel, batch=batch, context_len=context_len)
        return self._forecasts[key]


#: gaps between arrivals: bursts (0), a busy stream, idle stretches.
_GAPS = st.one_of(st.just(0.0), st.floats(0.0, 0.05),
                  st.floats(0.5, 30.0))


class TestDecodeRunDifferential:
    """``run`` decodes a run of steps per loop turn; the one-step loop
    it replaced must give the same records bit for bit, and must first
    forecast the step costs of the same batch sizes in the same
    order."""

    @staticmethod
    def _check(seer, config, requests):
        memo = _MemoSeer(seer)
        caches = {}, {}
        run = ServingSimulator(memo, HUNYUAN_MOE, PARALLEL, config,
                               cost_cache=caches[0]).run(requests)
        oracle = _per_step_run(
            ServingSimulator(memo, HUNYUAN_MOE, PARALLEL, config,
                             cost_cache=caches[1]), requests)
        assert [(r.request_id, r.first_token_s, r.finish_s,
                 r.output_tokens) for r in run.completed] \
            == [(r.request_id, r.first_token_s, r.finish_s,
                 r.output_tokens) for r in oracle.completed]
        assert run == oracle
        assert list(caches[0]["decode_s"]) == list(caches[1]["decode_s"])

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 8),
           draws=st.lists(st.tuples(_GAPS, st.integers(1, 64)),
                          max_size=40),
           duration=st.sampled_from([0.5, 5.0, 60.0]))
    def test_bursts_and_idle_gaps(self, seer, batch, draws, duration):
        requests, t = [], 0.0
        for gap, tokens in draws:
            t += gap
            requests.append(RequestDraw(arrival_s=t, output_tokens=tokens))
        self._check(seer, ServingConfig(batch_max=batch,
                                        duration_s=duration), requests)

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_arrival_on_a_step_boundary(self, seer, steps):
        """A request due exactly when a decode step ends is prefilled
        right after that step, not one step later."""
        config = ServingConfig(batch_max=4, duration_s=5.0)
        sim = ServingSimulator(seer, HUNYUAN_MOE, PARALLEL, config)
        boundary = 0.0 + sim.prefill_step_s()
        for _ in range(steps):
            boundary += sim.decode_step_s(1)
        requests = [RequestDraw(arrival_s=0.0, output_tokens=8),
                    RequestDraw(arrival_s=boundary, output_tokens=3)]
        self._check(seer, config, requests)
        late, = [r for r in sim.run(requests).completed
                 if r.request_id == 1]
        assert late.prefill_start_s == boundary

    @settings(max_examples=20, deadline=None)
    @given(batch=st.integers(1, 16), rate=st.floats(0.0, 200.0),
           output_len=st.integers(1, 128), seed=st.integers(0, 2))
    def test_poisson_load(self, seer, batch, rate, output_len, seed):
        config = ServingConfig(batch_max=batch, arrival_rate_per_s=rate,
                               output_len_mean=output_len,
                               duration_s=5.0, seed=seed)
        self._check(seer, config, draw_requests(config))


_SUBPROCESS_DIGEST = """
import json, sys
from repro.seer import (HUNYUAN_MOE, NetworkSuite, ParallelismConfig,
                        Seer, ServingConfig, ServingSimulator,
                        draw_requests)
cfg = ServingConfig(arrival_rate_per_s=2.0, duration_s=45.0, seed=11)
seer = Seer(gpu="H800", network=NetworkSuite())
sim = ServingSimulator(seer, HUNYUAN_MOE,
                       ParallelismConfig(tp=8, pp=1, dp=1, ep=16), cfg)
report = sim.run()
print(json.dumps({
    "draws": [[d.arrival_s, d.output_tokens]
              for d in draw_requests(cfg)],
    "finish": [r.finish_s for r in report.completed],
}))
"""


class TestCrossProcessDeterminism:
    def test_digest_stable_across_hash_seeds(self):
        """The PR-3 hard bar: bit-identical under PYTHONHASHSEED."""
        digests = outputs_under_hash_seeds(_SUBPROCESS_DIGEST, ("1", "2"))
        assert digests[0] == digests[1]
        assert '"finish"' in digests[0]
