"""Task specs: canonical, content-addressed descriptions of work.

A :class:`TaskSpec` is the unit the farm schedules: a registered
``kind`` (which simulator entry point to drive) plus a JSON dict of
parameters.  Specs are *canonical* — serialisation sorts keys, strips
whitespace, and rejects NaN — so the same logical task always yields
the same bytes and therefore the same :meth:`TaskSpec.content_hash`.
That hash (plus the code fingerprint, see :mod:`repro.farm.cache`) is
the cache key and the per-task deterministic seed.

Task kinds are registered with :func:`register_task`; each carries a
``version`` folded into the hash, so changing a runner's output format
bumps the version and invalidates cached results explicitly rather
than silently.

The determinism contract every runner must honour:

* the result is a pure function of ``params`` — every stochastic draw
  comes from a seed in the spec, never from ambient state;
* the result is JSON-serialisable and canonicalisable (no NaN);
* the runner resets process-global counters it depends on (the farm
  resets flow ids and re-seeds the global ``random`` before each task
  as defense in depth).

Runners that honour it are *location-transparent*: the farm may run
them in-process, in a pooled worker, or not at all (cache hit) and the
caller cannot tell the difference.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "TaskKind",
    "TaskSpec",
    "UnknownTaskKind",
    "canonical_json",
    "execute_spec",
    "grid_specs",
    "register_task",
    "specs_from_document",
    "task_kind",
    "task_kinds",
]

#: Bumped when the spec envelope itself (not a runner) changes shape.
SPEC_SCHEMA_VERSION = 1


class UnknownTaskKind(KeyError):
    """Raised when a spec names a kind no runner is registered for."""


def canonical_json(value: Any) -> str:
    """Serialise to the one canonical JSON form used for hashing.

    Sorted keys, minimal separators, pure ASCII, and ``allow_nan=False``
    so a non-finite float is an error instead of a platform-dependent
    token.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


@dataclass(frozen=True)
class TaskKind:
    """A registered runner for one kind of task."""

    name: str
    runner: Callable[[Dict[str, Any]], Any]
    version: int = 1
    description: str = ""


_REGISTRY: Dict[str, TaskKind] = {}


def register_task(name: str, version: int = 1, description: str = ""):
    """Decorator: register ``fn(params) -> json-able result`` as a kind."""
    def _decorate(fn: Callable[[Dict[str, Any]], Any]):
        if name in _REGISTRY:
            raise ValueError(f"task kind {name!r} already registered")
        _REGISTRY[name] = TaskKind(name=name, runner=fn,
                                   version=version,
                                   description=description)
        return fn
    return _decorate


def task_kind(name: str) -> TaskKind:
    """Look up a registered kind (importing the builtin set lazily)."""
    _ensure_builtin_tasks()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownTaskKind(
            f"no task kind {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def task_kinds() -> List[str]:
    """Sorted names of every registered kind."""
    _ensure_builtin_tasks()
    return sorted(_REGISTRY)


def _ensure_builtin_tasks() -> None:
    # Import for the registration side effect; cheap after the first
    # call, and inside a function so spec.py has no heavy deps.
    from . import tasks as _tasks  # noqa: F401


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit of work: a kind plus canonical params."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: free-form display label; NOT part of the hash.
    label: str = ""
    #: per-task wall-clock budget, overriding the executor's generic
    #: ``timeout_s`` — slow kinds (a faulted 512K ``hierarchy-run``)
    #: declare their own budget instead of inflating everyone's.  Like
    #: ``label``, NOT part of the hash: it shapes execution, never the
    #: result.
    timeout_s: Optional[float] = None

    # -- canonical identity -------------------------------------------------
    def canonical(self) -> str:
        """The hashed form: kind + runner version + params."""
        return canonical_json({
            "schema": SPEC_SCHEMA_VERSION,
            "kind": self.kind,
            "version": task_kind(self.kind).version,
            "params": self.params,
        })

    @property
    def content_hash(self) -> str:
        """Stable sha256 of the canonical form (hex)."""
        return hashlib.sha256(
            self.canonical().encode("ascii")).hexdigest()

    @property
    def seed_material(self) -> int:
        """Deterministic per-task integer for defensive re-seeding."""
        return int(self.content_hash[:16], 16)

    def describe(self) -> str:
        if self.label:
            return self.label
        brief = ",".join(f"{k}={self.params[k]}"
                         for k in sorted(self.params)[:4])
        return f"{self.kind}({brief})"

    # -- (de)serialisation --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind,
                                "params": dict(self.params)}
        if self.label:
            data["label"] = self.label
        if self.timeout_s is not None:
            data["timeout_s"] = self.timeout_s
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskSpec":
        return cls(kind=data["kind"], params=dict(data.get("params", {})),
                   label=data.get("label", ""),
                   timeout_s=data.get("timeout_s"))


def execute_spec(spec: TaskSpec) -> Any:
    """Run one spec to completion in the current process.

    This is the single choke point both the serial path and the pool
    workers go through, so the execution environment is identical by
    construction: global flow ids are reset and the global ``random``
    module is re-seeded from the spec hash (registered runners must
    thread explicit seeds anyway; this pins down any stray draw).
    """
    import random as _random

    from ..network.flows import reset_flow_ids

    kind = task_kind(spec.kind)
    reset_flow_ids()
    _random.seed(spec.seed_material)
    result = kind.runner(dict(spec.params))
    # Fail fast, in the worker, if a runner leaks non-JSON state.
    canonical_json(result)
    return result


def grid_specs(kind: str, base: Optional[Mapping[str, Any]] = None,
               grid: Optional[Mapping[str, Sequence[Any]]] = None,
               seeds: Optional[Iterable[int]] = None,
               seed_key: str = "seed") -> List[TaskSpec]:
    """Expand ``base`` x ``grid`` x ``seeds`` into one spec per cell.

    ``grid`` maps param names to candidate values; ``seeds`` is
    shorthand for one more axis on ``seed_key``.  A grid value
    overrides the base value for its cell; an empty/absent grid with
    no seeds yields exactly one spec (the base).  Axes are sorted by
    name and values keep their declared order, so the same document
    always yields the same spec list and therefore the same hashes.
    """
    base = dict(base or {})
    axes: List[Tuple[str, List[Any]]] = [
        (key, list(values)) for key, values in sorted(
            (grid or {}).items())
    ]
    if seeds is not None:
        if any(key == seed_key for key, _ in axes):
            raise ValueError(
                f"{seed_key!r} appears in both grid= and seeds=")
        axes.append((seed_key, [int(seed) for seed in seeds]))
        axes.sort(key=lambda axis: axis[0])
    if not axes:
        return [TaskSpec(kind=kind, params=base)]
    specs = []
    names = [name for name, _ in axes]
    for cell in itertools.product(*(values for _, values in axes)):
        params = dict(base)
        params.update(zip(names, cell))
        label = ",".join(f"{name}={value}"
                         for name, value in zip(names, cell))
        specs.append(TaskSpec(kind=kind, params=params,
                              label=f"{kind}[{label}]"))
    return specs


def specs_from_document(document: Dict[str, Any]) -> List[TaskSpec]:
    """Parse a spec document (the ``repro farm`` file format).

    ``{"tasks": [{kind, params, label?}, ...]}`` enumerates explicit
    specs; ``{"sweep": {kind, base?, grid?, seeds?, seed_key?}}``
    expands a parameter grid / seed matrix via :func:`grid_specs`.
    Both keys may be present; tasks come first.
    """
    specs: List[TaskSpec] = [
        TaskSpec.from_dict(entry)
        for entry in document.get("tasks", [])
    ]
    sweeps: Iterable[Dict[str, Any]] = document.get("sweeps") or (
        [document["sweep"]] if document.get("sweep") else [])
    for sweep_doc in sweeps:
        specs.extend(grid_specs(
            sweep_doc["kind"],
            base=sweep_doc.get("base"),
            grid=sweep_doc.get("grid"),
            seeds=sweep_doc.get("seeds"),
            seed_key=sweep_doc.get("seed_key", "seed")))
    if not specs:
        raise ValueError(
            "spec document declares no tasks (need 'tasks', 'sweep', "
            "or 'sweeps')")
    return specs
