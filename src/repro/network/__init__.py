"""Flow-level network simulation: ECMP, fabric, congestion, collectives."""

from .collectives import (
    CollectiveConfig,
    CollectiveResult,
    Endpoint,
    TimedCollectiveResult,
    all_gather_flows,
    all_to_all_flows,
    collective_schedule,
    reduce_scatter_flows,
    ring_allreduce_flows,
    run_collective,
    run_collective_timed,
    send_recv_chain,
    send_recv_flows,
    topology_ordered,
)
from .congestion import CongestionConfig, CongestionModel, LinkCongestion
from .controller import EcmpController, ReassignmentReport
from .dcqcn import (
    BottleneckResult,
    BottleneckSim,
    DcqcnFlowState,
    DcqcnParams,
)
from .ecmp import EcmpHasher, FiveTuple, crc16
from .engine import FabricEngine, SolverStats
from .fabric import Fabric, FabricRun, LinkLoad
from .flows import Flow, FlowPath, make_flow, reset_flow_ids
from .routing import EcmpRouter, RoutingError
from .solver import HAVE_NUMPY, resolve_backend, use_backend

__all__ = [
    "BottleneckResult",
    "BottleneckSim",
    "CollectiveConfig",
    "DcqcnFlowState",
    "DcqcnParams",
    "CollectiveResult",
    "CongestionConfig",
    "CongestionModel",
    "EcmpController",
    "EcmpHasher",
    "EcmpRouter",
    "Endpoint",
    "Fabric",
    "FabricEngine",
    "FabricRun",
    "FiveTuple",
    "Flow",
    "FlowPath",
    "HAVE_NUMPY",
    "LinkCongestion",
    "LinkLoad",
    "ReassignmentReport",
    "RoutingError",
    "SolverStats",
    "TimedCollectiveResult",
    "all_gather_flows",
    "all_to_all_flows",
    "collective_schedule",
    "crc16",
    "make_flow",
    "reduce_scatter_flows",
    "reset_flow_ids",
    "resolve_backend",
    "ring_allreduce_flows",
    "run_collective",
    "run_collective_timed",
    "send_recv_chain",
    "send_recv_flows",
    "topology_ordered",
    "use_backend",
]
