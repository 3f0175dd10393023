"""The fill kernel is chosen in one place: a ``use_backend`` scope.

Spies replace both kernels in :mod:`repro.network.solver` — the engine
and :func:`~repro.network.solver.solve_incidence` look their kernel up
there at solve time — and count calls, so each test shows which kernel
actually ran, not which name an object carries.
"""

import pytest

import repro.network.solver as solver
from repro.cli import main
from repro.network import (Fabric, FabricEngine, make_flow,
                           resolve_backend, use_backend)
from repro.topology import AstralParams, build_astral
from repro.twin import TwinConfig, TwinSession
from repro.farm.tasks import (run_cluster_sweep, run_hierarchy,
                              run_resilience_campaign, run_serving)
from repro.validation import run_campaign
from repro.validation.runner import (CampaignReport, CaseReport,
                                     Violation)


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Calls per kernel name, counted by spies over the module globals."""
    calls = {"python": 0, "vector": 0}
    for name, attr in (("python", "fill_rates_python"),
                       ("vector", "progressive_fill_vector")):
        def spy(*args, _name=name, _kernel=getattr(solver, attr),
                **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(solver, attr, spy)
    return calls


def _fabric():
    return Fabric(build_astral(AstralParams.tiny()))


def _flows():
    return [make_flow("p0.b0.h0", "p0.b0.h1", rail=0, size_bits=8e9),
            make_flow("p0.b0.h0", "p1.b0.h1", rail=0, size_bits=4e9)]


def _run(engine):
    engine.submit_many(_flows())
    return engine.run()


class TestScope:
    def test_vector_runs_outside_any_scope(self, kernel_calls):
        _run(FabricEngine(_fabric()))
        _fabric().max_min_rates(_flows())
        assert kernel_calls["vector"] > 0
        assert kernel_calls["python"] == 0

    def test_engine_keeps_the_backend_it_was_built_in(self,
                                                      kernel_calls):
        with use_backend("python"):
            engine = FabricEngine(_fabric())
        _run(engine)  # the scope has exited
        assert kernel_calls["python"] > 0
        assert kernel_calls["vector"] == 0

    def test_scope_at_run_time_does_not_switch_an_engine(self,
                                                         kernel_calls):
        engine = FabricEngine(_fabric())
        with use_backend("python"):
            _run(engine)
        assert kernel_calls["vector"] > 0
        assert kernel_calls["python"] == 0

    def test_batch_solve_reads_the_scope_when_called(self,
                                                     kernel_calls):
        fabric, flows = _fabric(), _flows()
        with use_backend("python"):
            rates = fabric.max_min_rates(flows)
        assert kernel_calls == {"python": 1, "vector": 0}
        assert fabric.max_min_rates(flows) == rates
        assert kernel_calls == {"python": 1, "vector": 1}

    def test_scopes_nest_and_restore(self):
        assert resolve_backend() == "vector"
        with use_backend("python"):
            assert resolve_backend() == "python"
            with use_backend("vector"):
                assert resolve_backend() == "vector"
            with use_backend(None):
                assert resolve_backend() == "python"
        assert resolve_backend() == "vector"

    @pytest.mark.parametrize("name", ["auto", "numpy", ""])
    def test_unknown_names_are_rejected(self, name):
        with pytest.raises(ValueError, match="unknown solver backend"):
            with use_backend(name):
                pass


class TestNoOtherSelector:
    def test_astral_params_solver_must_be_none(self):
        with pytest.raises(ValueError, match="use_backend"):
            AstralParams(solver="python")
        # Stored reports carry the field; they still load.
        assert AstralParams(solver=None) == AstralParams()

    @pytest.mark.parametrize("name", ["auto", "python", "vector"])
    def test_twin_config_solver_must_be_none(self, name):
        with pytest.raises(ValueError, match="use_backend"):
            TwinConfig.from_params({"solver": name})
        assert TwinConfig.from_params({"solver": None}) == TwinConfig()

    @pytest.mark.parametrize("runner", [
        run_resilience_campaign, run_cluster_sweep, run_hierarchy,
        run_serving])
    def test_farm_kinds_reject_a_solver_param(self, runner):
        with pytest.raises(ValueError, match="use_backend"):
            runner({"solver": "python"})

    @pytest.mark.parametrize("command", ["validate", "scale", "cluster",
                                         "resilience", "serve"])
    def test_cli_has_no_solver_flag(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--solver", "python"])
        assert excinfo.value.code == 2
        assert "--solver" in capsys.readouterr().err


class TestEntryPoints:
    def test_cluster_session_keeps_its_build_scope(self, kernel_calls):
        with use_backend("python"):
            session = TwinSession(TwinConfig(kind="cluster",
                                             scale="tiny", seed=7,
                                             jobs=8))
        assert session.stack.engine.backend == "python"
        # Flows on the session's engine, driven outside any scope.
        for flow in _flows():
            session.stack.engine.submit(flow)
        session.stack.advance_to(10.0)
        assert kernel_calls["python"] > 0
        assert kernel_calls["vector"] == 0

    def test_serving_session_recomputes_in_the_caller_scope(
            self, kernel_calls):
        with use_backend("python"):
            session = TwinSession(TwinConfig(
                kind="serving", scale="small", seed=3,
                serving={"duration_s": 3600.0, "cosim_iterations": 1,
                         "max_kv_flows": 4}))
            built = kernel_calls["python"]
            assert built > 0
            session.submit({"kind": "set-power-cap", "frac": 0.5})
            session.advance(1800.0)
        assert kernel_calls["python"] > built
        assert kernel_calls["vector"] == 0

    @pytest.mark.parametrize("scope, backend", [("python", "python"),
                                               (None, "vector")])
    def test_campaign_writes_the_scope_into_farm_params(
            self, scope, backend, tmp_path):
        with use_backend(scope):
            report = run_campaign(0, 1, fast=True, use_cache=True,
                                  cache_dir=str(tmp_path))
        assert report.farm.results[0].spec.params["solver"] == backend
        assert not report.failures

    @pytest.mark.parametrize("scope, suffix", [
        ("python", ' inside use_backend("python")'), (None, "")])
    def test_validate_reproduce_line_names_the_scope(
            self, scope, suffix, monkeypatch, capsys):
        failing = CaseReport(seed=5, index=3, family="f", profile="p",
                             violations=[Violation("oracle", "broke")])
        monkeypatch.setattr(
            "repro.validation.run_campaign",
            lambda *args, **kwargs: CampaignReport(seed=5,
                                                   cases=[failing]))
        with use_backend(scope):
            assert main(["validate", "--seed", "5", "--cases", "1"]) == 1
        assert (f"reproduce with: repro validate --seed 5 --case 3"
                f"{suffix}\n") in capsys.readouterr().out
