"""The farm-backed CLI commands compute only through their farm task.

``repro cluster``, ``forecast``, ``pue``, ``goodput``, ``overhead``,
``taxonomy`` and ``resilience`` each build a ``TaskSpec``, run it
through ``FarmExecutor.run`` and print the result.  A stdlib AST scan
keeps a second, in-process copy of any of them from coming back: their
bodies may import ``repro.farm``, the cluster renderer and the model
name table, but nothing from the simulation packages, and they name
none of the calls that compute the reports.  A source scan keeps the
farm's per-task primitive inside ``repro.farm``, so every list of
specs runs through the one executor.
"""

import ast
import inspect
import textwrap
from pathlib import Path

import repro
import repro.cli as cli

FARM_BACKED = ("_cmd_cluster", "_cmd_forecast", "_cmd_pue",
               "_cmd_goodput", "_cmd_overhead", "_cmd_taxonomy",
               "_cmd_resilience")
SIMULATION = ("repro.core", "repro.seer", "repro.power",
              "repro.monitoring", "repro.resilience")
ALLOWED = ("repro.seer.names",)
COMPUTES = {"training_goodput", "pue_evolution", "sample_faults",
            "MonitoringOverhead", "AstralInfrastructure", "Seer",
            "Counter"}


def _within(module, packages):
    return any(module == package or module.startswith(package + ".")
               for package in packages)


def _violations(function: ast.FunctionDef):
    found = set()
    for node in ast.walk(function):
        names = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("repro." if node.level else "") + (node.module or "")
            names = [alias.name for alias in node.names]
            modules = [f"{base}.{name}".strip(".") for name in names]
        else:
            modules = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
        found |= {f"{function.name} imports {module}"
                  for module in modules
                  if _within(module, SIMULATION)
                  and not _within(module, ALLOWED)}
        found |= {f"{function.name} names {name}"
                  for name in names if name in COMPUTES}
    return found


def _functions(source):
    return {node.name: node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)}


def test_farm_backed_commands_only_render():
    functions = _functions(inspect.getsource(cli))
    assert set(FARM_BACKED) <= set(functions)
    found = set().union(*(_violations(functions[name])
                          for name in FARM_BACKED))
    assert found == set()


def test_the_scan_sees_a_second_path():
    planted = _functions(textwrap.dedent("""
        def _cmd_goodput(args):
            from repro.core import training_goodput
            return training_goodput(args.gpus)

        def _cmd_taxonomy(args):
            from collections import Counter
            from repro import monitoring
            return Counter(monitoring.sample_faults(args.count))

        def _cmd_forecast(args):
            from repro.seer.names import MODEL_NAMES
            from repro.farm import TaskSpec, execute_spec
            return execute_spec(TaskSpec("seer-forecast", {}))
    """))
    assert _violations(planted["_cmd_goodput"]) == {
        "_cmd_goodput imports repro.core.training_goodput",
        "_cmd_goodput names training_goodput"}
    assert _violations(planted["_cmd_taxonomy"]) == {
        "_cmd_taxonomy imports repro.monitoring",
        "_cmd_taxonomy names Counter",
        "_cmd_taxonomy names sample_faults"}
    assert _violations(planted["_cmd_forecast"]) == set()


def test_model_choices_come_from_the_seer_table():
    from repro.seer.names import MODEL_NAMES
    assert not hasattr(cli, "_MODELS")
    sub = next(action for action in cli.build_parser()._actions
               if hasattr(action, "choices") and action.choices)
    for command in ("forecast", "inference", "memory", "sweep"):
        model = next(action for action in sub.choices[command]._actions
                     if action.dest == "model")
        assert model.choices == sorted(MODEL_NAMES)


def test_only_the_farm_names_execute_spec():
    package = Path(repro.__file__).resolve().parent
    naming = sorted(
        str(path.relative_to(package)) for path in package.rglob("*.py")
        if path.relative_to(package).parts[0] != "farm"
        and "execute_spec" in path.read_text(encoding="utf-8"))
    assert naming == []
