"""Operator dependency graphs with Chakra-style JSON interchange (§4.3).

Two generation paths, mirroring the paper:

* *converted from profiling data*: production Seer imports PyTorch
  profiler traces through Chakra; here, :meth:`OperatorGraph.from_json`
  accepts the same shape of executor-graph JSON (a list of node records
  with ids, deps, attributes, and optional execution times).
* *extended by handcraft*: experts add operators following the JSON
  template — :meth:`OperatorGraph.add` / :meth:`OperatorGraph.to_json`
  round-trip exactly that template.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional

from .operators import Operator, OpType

__all__ = ["GraphError", "OperatorGraph"]


class GraphError(ValueError):
    """Raised for malformed operator graphs (cycles, bad deps)."""


class OperatorGraph:
    """A DAG of operators with topological iteration."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self._ops: Dict[int, Operator] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._ops.values())

    def op(self, op_id: int) -> Operator:
        try:
            return self._ops[op_id]
        except KeyError:
            raise GraphError(f"unknown operator id: {op_id}") from None

    @property
    def operators(self) -> List[Operator]:
        return list(self._ops.values())

    # -- construction ------------------------------------------------------
    def add(self, name: str, op_type: OpType,
            deps: Optional[Iterable[int]] = None, **attrs) -> Operator:
        """Create and insert an operator; returns it (with its id)."""
        deps = list(deps or [])
        for dep in deps:
            if dep not in self._ops:
                raise GraphError(
                    f"operator {name!r} depends on unknown id {dep}")
        op = Operator(op_id=self._next_id, name=name, op_type=op_type,
                      deps=deps, **attrs)
        self._ops[op.op_id] = op
        self._next_id += 1
        return op

    def insert(self, op: Operator) -> Operator:
        """Insert a fully-formed operator (JSON import path)."""
        if op.op_id in self._ops:
            raise GraphError(f"duplicate operator id: {op.op_id}")
        self._ops[op.op_id] = op
        self._next_id = max(self._next_id, op.op_id + 1)
        return op

    # -- structure ---------------------------------------------------------
    def validate(self) -> None:
        """Check all deps exist and the graph is acyclic."""
        for op in self._ops.values():
            for dep in op.deps:
                if dep not in self._ops:
                    raise GraphError(
                        f"operator {op.op_id} depends on missing {dep}")
        self.topological_order()  # raises on cycles

    def topological_order(self) -> List[Operator]:
        indegree = {op_id: 0 for op_id in self._ops}
        children: Dict[int, List[int]] = {op_id: []
                                          for op_id in self._ops}
        for op in self._ops.values():
            for dep in op.deps:
                indegree[op.op_id] += 1
                children[dep].append(op.op_id)
        ready = deque(sorted(op_id for op_id, deg in indegree.items()
                             if deg == 0))
        order = []
        while ready:
            op_id = ready.popleft()
            order.append(self._ops[op_id])
            for child in children[op_id]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._ops):
            raise GraphError("operator graph contains a cycle")
        return order

    def critical_path_s(self) -> float:
        """Longest duration-weighted path (requires durations set)."""
        longest: Dict[int, float] = {}
        for op in self.topological_order():
            if op.duration_s is None:
                raise GraphError(
                    f"operator {op.op_id} has no duration; run the "
                    "execution model first")
            start = max((longest[d] for d in op.deps), default=0.0)
            longest[op.op_id] = start + op.duration_s
        return max(longest.values(), default=0.0)

    def counts_by_type(self) -> Dict[OpType, int]:
        counts: Dict[OpType, int] = {}
        for op in self._ops.values():
            counts[op.op_type] = counts.get(op.op_type, 0) + 1
        return counts

    # -- JSON interchange (the handcraft/Chakra template) ---------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        payload = {
            "name": self.name,
            "nodes": [op.to_json_dict()
                      for op in self.topological_order()],
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "OperatorGraph":
        payload = json.loads(text)
        graph = cls(name=payload.get("name", "graph"))
        for record in payload.get("nodes", []):
            graph.insert(Operator.from_json_dict(record))
        graph.validate()
        return graph
