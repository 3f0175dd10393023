"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_exits(self):
        with pytest.raises(SystemExit):
            main(["forecast", "--model", "bert-base"])

    def test_all_commands_registered(self):
        parser = build_parser()
        # argparse stores subparser choices on the last action.
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        assert set(sub.choices) == {
            "describe", "forecast", "inference", "memory", "pue",
            "sweep", "taxonomy", "overhead", "goodput",
            "diagnose-demo", "cluster", "resilience", "validate",
            "farm", "scale", "serve", "twin",
        }

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # Either the installed version or the pyproject dev fallback.
        assert any(ch.isdigit() for ch in out)


class TestCommands:
    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "total_gpus" in out

    def test_describe_paper_scale(self, capsys):
        assert main(["describe", "--paper-scale"]) == 0
        out = capsys.readouterr().out
        assert "524,288" in out

    def test_forecast(self, capsys):
        assert main(["forecast", "--model", "llama3-70b", "--tp", "4",
                     "--pp", "2", "--dp", "2",
                     "--microbatches", "4"]) == 0
        out = capsys.readouterr().out
        assert "iteration time" in out
        assert "deviation" in out

    def test_forecast_uncorrected_skips_deviation(self, capsys):
        assert main(["forecast", "--model", "llama3-70b", "--tp", "4",
                     "--pp", "2", "--dp", "1", "--microbatches", "4",
                     "--uncorrected"]) == 0
        out = capsys.readouterr().out
        assert "deviation" not in out

    def test_inference(self, capsys):
        assert main(["inference", "--model", "llama3-70b",
                     "--batch", "4", "--context", "512"]) == 0
        out = capsys.readouterr().out
        assert "decode tokens/s" in out

    def test_memory(self, capsys):
        assert main(["memory", "--model", "gpt3-175b", "--tp", "8",
                     "--pp", "8", "--dp", "16"]) == 0
        out = capsys.readouterr().out
        assert "optimizer" in out
        assert "GB" in out

    @pytest.mark.parametrize("command", ["forecast", "memory"])
    def test_unsplittable_layout_is_one_line(self, capsys, command):
        # DeepSeek-MoE's 61 layers do not split over the default pp=4.
        assert main([command, "--model", "deepseek-moe",
                     "--ep", "8"]) == 1
        assert capsys.readouterr().out == (
            "FAILED [error] ValueError: 61 layers not divisible by "
            "pp*virtual=4\n")

    def test_sweep(self, capsys):
        assert main(["sweep", "--model", "llama3-70b", "--gpus", "64",
                     "--microbatches", "8", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top layouts" in out
        assert "tok/s" in out

    def test_sweep_no_feasible_layout(self, capsys):
        # 70B params on 16 GPUs cannot fit 80 GB parts.
        assert main(["sweep", "--model", "llama3-70b", "--gpus", "16",
                     "--microbatches", "4"]) == 1
        assert "no feasible layout" in capsys.readouterr().out

    def test_pue(self, capsys):
        assert main(["pue"]) == 0
        out = capsys.readouterr().out
        assert "improvement vs traditional" in out

    def test_taxonomy(self, capsys):
        assert main(["taxonomy", "--count", "200", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fail-stop" in out
        assert "host-env-config" in out

    def test_overhead(self, capsys):
        assert main(["overhead", "--gpus", "10000"]) == 0
        out = capsys.readouterr().out
        assert "INT storage" in out

    def test_goodput(self, capsys):
        assert main(["goodput", "--gpus", "1024", "8192"]) == 0
        out = capsys.readouterr().out
        assert "MTBF" in out
        assert "8,192" in out

    def test_diagnose_demo(self, capsys):
        assert main(["diagnose-demo"]) == 0
        out = capsys.readouterr().out
        assert "localized to" in out
        assert "gpu-hardware" in out

    def test_cluster(self, capsys):
        assert main(["cluster", "--scale", "tiny", "--jobs", "5",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert "job-000" in out

    def test_cluster_is_deterministic(self, capsys):
        args = ["cluster", "--scale", "tiny", "--jobs", "8",
                "--seed", "2", "--policy", "priority"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_cluster_contention(self, capsys):
        assert main(["cluster", "--scale", "tiny", "--jobs", "6",
                     "--seed", "0", "--contention"]) == 0
        out = capsys.readouterr().out
        assert "contention" in out
        assert "efficiency" in out


class TestTopLevelPackage:
    def test_lazy_exports(self):
        import repro
        assert repro.AstralParams().total_gpus == 524_288
        assert repro.Seer is not None
        assert repro.AstralInfrastructure is not None
        assert repro.FaultSpec is not None

    def test_unknown_attribute_raises(self):
        import repro
        with pytest.raises(AttributeError):
            repro.not_a_thing


class TestScaleCommand:
    _DIMS = ["--pods", "2", "--blocks-per-pod", "2",
             "--hosts-per-block", "4", "--gpus-per-host", "2",
             "--aggs-per-group", "2", "--cores-per-group", "2"]

    def test_explicit_dims_smoke(self, capsys):
        assert main(["scale", *self._DIMS, "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "32 GPUs" in out
        assert "EXACT" in out

    def test_fault_refines_and_caps_split_classes(self, capsys):
        assert main(["scale", *self._DIMS, "--iterations", "3",
                     "--faults", "1", "--power-cap", "1=0.8"]) == 0
        out = capsys.readouterr().out
        assert "1 refined groups" in out

    def test_bad_power_cap_exits(self):
        with pytest.raises(SystemExit):
            main(["scale", *self._DIMS, "--power-cap", "one=fast"])

    def test_json_report(self, capsys, tmp_path):
        import json
        path = tmp_path / "scale.json"
        assert main(["scale", *self._DIMS, "--iterations", "3",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["fold"]["exact"] is True
        assert data["scenario"]["total_gpus"] == 32
        assert data["jobs"]

    def test_farm_route_caches(self, capsys, tmp_path):
        args = ["scale", *self._DIMS, "--iterations", "3",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "1 executed, 0 from cache" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 executed, 1 from cache" in warm
        # The folded numbers themselves must agree bit-for-bit.
        assert cold.splitlines()[1:-1] == warm.splitlines()[1:-1]


class TestRunSpec:
    """The one farm route every computing command shares; it prints a
    farm line only when workers or a cache were asked for."""

    def test_inline_without_workers_or_cache(self, capsys):
        from repro.cli import _run_task
        assert _run_task("farm-selftest", {"mode": "ok", "value": 3}) \
            == {"value": 3, "squared": 9}
        assert capsys.readouterr().out == ""

    def test_farm_failure_prints_and_returns_none(self, capsys,
                                                  tmp_path):
        from repro.cli import _run_task
        assert _run_task("farm-selftest", {"mode": "fail"}, 1,
                         str(tmp_path / "cache")) is None
        assert capsys.readouterr().out.startswith("FAILED [")


class TestServeCommand:
    _FAST = ["serve", "--preset", "4k", "--duration", "7200",
             "--users-scale", "0.05", "--train-jobs", "8"]

    def test_smoke(self, capsys):
        assert main(self._FAST) == 0
        out = capsys.readouterr().out
        assert "TTFT" in out
        assert "pod pair" in out

    def test_farm_route_caches(self, capsys, tmp_path):
        args = [*self._FAST, "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "1 executed, 0 from cache" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 executed, 1 from cache" in warm
        # The simulated numbers themselves must agree bit-for-bit
        # (only the farm/wall lines may differ).
        def _body(text):
            return [line for line in text.splitlines()
                    if not line.startswith("farm:")
                    and "wall" not in line]
        assert _body(cold) == _body(warm)

    def test_json_report(self, tmp_path, capsys):
        import json
        path = tmp_path / "serve.json"
        assert main([*self._FAST, "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["slo"]["goodput_fraction"] is not None
        assert data["power"]["contract_mw"] is not None
        assert data["fold"]["n_pool_sims"] >= 1

    def test_negative_cap_disables_contract(self, tmp_path, capsys):
        import json
        path = tmp_path / "serve.json"
        assert main([*self._FAST, "--power-cap-frac", "-1",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["power"]["contract_mw"] is None


class TestResilienceCommand:
    def test_resilience_json_smoke(self, capsys):
        import json
        assert main(["resilience", "--iterations", "30",
                     "--fault-at", "120", "--checkpoint-interval",
                     "600", "--seed", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["wedged_jobs"] == []
        assert data["n_faults"] == 1
        assert data["fault_log"]
        assert data["jobs"][0]["completed_s"] is not None

    def test_resilience_human_output(self, capsys):
        assert main(["resilience", "--iterations", "30",
                     "--fault-at", "120", "--checkpoint-interval",
                     "600", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "fault" in out.lower()


class TestTwinCommand:
    def test_demo_replays_to_a_match(self, capsys):
        """`repro twin demo` in-process: server harness, the scripted
        operator scenario, and the replay verdict."""
        assert main(["twin", "demo", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "replay MATCH" in out
        assert "replay digest verified over" in out
