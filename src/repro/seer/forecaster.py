"""The Astral Seer facade: operator-granular forecasts in seconds (§4).

Wires together graph building, execution-time modeling (basic or
self-corrected), and the DES timeline engine.  The three goals of §4.1
map to methods:

* *parameter tuning* — run :meth:`forecast_training` across candidate
  parallelism/network configurations and compare;
* *verifying in-production runs* — the forecast's iteration time and
  per-host compute/communication splits are the thresholds the
  monitoring analyzer consumes (§3.3);
* *exploring new frameworks/architectures* — swap the network suite
  (intra-host scale, oversubscription, cross-DC) or hand Seer a
  handcrafted operator graph.

:meth:`testbed_training` runs the same graph under the ground-truth
effective model, standing in for a production testbed measurement —
the reference against which Seer's accuracy (Figure 12) is scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .calibration import calibrate
from .graph import OperatorGraph
from .hardware import GpuSuite, NetworkSuite, gpu_suite
from .modeling import BasicModel, EffectiveModel, ExecutionModel
from .models.builder import build_inference_graph, build_training_graph
from .models.config import ModelConfig, ParallelismConfig
from .timeline import Timeline, TimelineEngine

__all__ = ["TrainingForecast", "InferenceForecast", "Seer"]


@dataclass
class TrainingForecast:
    """Forecast of one training iteration."""

    model_name: str
    iteration_time_s: float
    timeline: Timeline
    parallel: ParallelismConfig
    tokens_per_iteration: int

    @property
    def tokens_per_s(self) -> float:
        if self.iteration_time_s <= 0:
            return float("inf")
        return self.tokens_per_iteration / self.iteration_time_s

    @property
    def throughput_per_gpu(self) -> float:
        return self.tokens_per_s / self.parallel.world_size

    def exposed_comm_fraction(self) -> float:
        """Fraction of total communication time left exposed."""
        comm = self.timeline.comm_time_s()
        if comm <= 0:
            return 0.0
        exposed = sum(self.timeline.exposed_comm_s(device)
                      for device in self.timeline.devices())
        return min(1.0, exposed / comm)

    def time_to_train_s(self, total_tokens: float) -> float:
        """Wall-clock seconds to consume a token budget at this rate."""
        if total_tokens < 0:
            raise ValueError("token budget cannot be negative")
        if self.tokens_per_s <= 0:
            return float("inf")
        return total_tokens / self.tokens_per_s

    def gpu_hours(self, total_tokens: float) -> float:
        """GPU-hours to train the token budget on this deployment."""
        return self.time_to_train_s(total_tokens) / 3600.0 \
            * self.parallel.world_size

    def energy_per_iteration_j(self, tdp_watts: float = 500.0) -> float:
        """GPU energy of one iteration, from the operator timeline.

        Derives a power trace per pipeline stage
        (:func:`repro.power.power_from_timeline`) and sums the stage
        energies scaled by the ranks sharing each stage (TP x DP).
        """
        from ..power.from_timeline import power_from_timeline
        from ..power.gpu_power import GpuSpec
        gpu = GpuSpec(tdp_watts=tdp_watts)
        ranks_per_stage = self.parallel.tp * self.parallel.dp
        total = 0.0
        for device in self.timeline.devices():
            trace = power_from_timeline(self.timeline, gpu,
                                        device=device, sample_hz=200.0)
            total += trace.energy_joules() * ranks_per_stage
        return total

    def tokens_per_joule(self, tdp_watts: float = 500.0) -> float:
        """Training energy efficiency (GPU energy only)."""
        energy = self.energy_per_iteration_j(tdp_watts)
        if energy <= 0:
            return float("inf")
        return self.tokens_per_iteration / energy


@dataclass
class InferenceForecast:
    """Forecast of inference service performance."""

    model_name: str
    prefill_time_s: float
    decode_time_per_token_s: float
    batch: int
    context_len: int

    @property
    def prefill_tokens_per_s(self) -> float:
        if self.prefill_time_s <= 0:
            return float("inf")
        return self.batch * self.context_len / self.prefill_time_s

    @property
    def decode_tokens_per_s(self) -> float:
        if self.decode_time_per_token_s <= 0:
            return float("inf")
        return self.batch / self.decode_time_per_token_s


class Seer:
    """Operator-granular LLM performance forecaster."""

    def __init__(self, gpu: Union[str, GpuSuite] = "H800",
                 network: Optional[NetworkSuite] = None,
                 corrected: bool = True,
                 calibration_noise: float = 0.01,
                 seed: int = 0):
        self.gpu = gpu_suite(gpu) if isinstance(gpu, str) else gpu
        self.network = network or NetworkSuite()
        self.corrected = corrected
        if corrected:
            self.execution_model: ExecutionModel = calibrate(
                self.gpu, self.network, noise_frac=calibration_noise,
                seed=seed)
        else:
            self.execution_model = BasicModel(gpu=self.gpu,
                                              network=self.network)
        self._truth = EffectiveModel(gpu=self.gpu, network=self.network)

    # -- forecasting -----------------------------------------------------------
    def forecast_training(self, model: ModelConfig,
                          parallel: ParallelismConfig,
                          detail: bool = False) -> TrainingForecast:
        graph = build_training_graph(model, parallel, self.network,
                                     detail=detail)
        return self._run_training(model, parallel, graph,
                                  self.execution_model)

    def forecast_graph(self, graph: OperatorGraph) -> Timeline:
        """Schedule an arbitrary (e.g. handcrafted) operator graph."""
        return TimelineEngine(self.execution_model).run(graph)

    def forecast_inference(self, model: ModelConfig,
                           parallel: ParallelismConfig,
                           batch: int = 8,
                           context_len: Optional[int] = None
                           ) -> InferenceForecast:
        context = context_len if context_len is not None \
            else model.seq_len
        engine = TimelineEngine(self.execution_model)
        prefill = engine.run(build_inference_graph(
            model, parallel, self.network, phase="prefill",
            batch=batch, context_len=context))
        decode = engine.run(build_inference_graph(
            model, parallel, self.network, phase="decode",
            batch=batch, context_len=context))
        return InferenceForecast(
            model_name=model.name,
            prefill_time_s=prefill.total_time_s,
            decode_time_per_token_s=decode.total_time_s,
            batch=batch,
            context_len=context,
        )

    # -- testbed stand-in --------------------------------------------------------
    def testbed_training(self, model: ModelConfig,
                         parallel: ParallelismConfig,
                         detail: bool = False) -> TrainingForecast:
        """Ground-truth run of the same graph (the 'testbed result')."""
        graph = build_training_graph(model, parallel, self.network,
                                     detail=detail)
        return self._run_training(model, parallel, graph, self._truth)

    def accuracy_deviation(self, model: ModelConfig,
                           parallel: ParallelismConfig,
                           detail: bool = False) -> float:
        """|forecast - testbed| / testbed for one iteration (Fig. 12)."""
        forecast = self.forecast_training(model, parallel, detail)
        testbed = self.testbed_training(model, parallel, detail)
        if testbed.iteration_time_s <= 0:
            return 0.0
        return abs(forecast.iteration_time_s
                   - testbed.iteration_time_s) \
            / testbed.iteration_time_s

    # -- internals ----------------------------------------------------------------
    def _run_training(self, model: ModelConfig,
                      parallel: ParallelismConfig,
                      graph: OperatorGraph,
                      execution_model: ExecutionModel
                      ) -> TrainingForecast:
        timeline = TimelineEngine(execution_model).run(graph)
        tokens = (parallel.micro_batch_size * parallel.microbatches
                  * parallel.dp * model.seq_len)
        return TrainingForecast(
            model_name=model.name,
            iteration_time_s=timeline.total_time_s,
            timeline=timeline,
            parallel=parallel,
            tokens_per_iteration=tokens,
        )
