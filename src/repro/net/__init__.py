"""Network substrate: graphs, topologies, and the two message-passing simulators."""

from .graph import Edge, Graph, NodeId, UnknownLinkError, edge_key, validate_tree
from .events import EventQueue
from .delays import (
    TAU,
    AlternatingDelay,
    BimodalDelay,
    ConstantDelay,
    DelayModel,
    DirectionalSkewDelay,
    InvalidDelayError,
    SlowEdgesDelay,
    UniformDelay,
    standard_adversaries,
)
from .faults import DETECT_TIMEOUT, FaultSchedule, FaultScheduleError
from .program import (
    ArrivedBatch,
    NodeInfo,
    NodeProgram,
    ProgramSpec,
    PulseApi,
    all_nodes_initiate,
    fixed_initiators,
    sampled_initiators,
    single_initiator,
)
from .sync_runtime import SyncResult, SyncRuntime, run_synchronous
from .async_runtime import (
    AsyncResult,
    AsyncRuntime,
    LinkSkeleton,
    Process,
    ProcessContext,
    link_skeleton_for,
    run_asynchronous,
)
from .shard import (
    CellSummary,
    default_jobs,
    digest_outputs,
    run_serial,
    run_sharded,
)
from .sweep import AsyncSweep
from . import topology

__all__ = [
    "Edge",
    "Graph",
    "NodeId",
    "edge_key",
    "validate_tree",
    "EventQueue",
    "TAU",
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "BimodalDelay",
    "SlowEdgesDelay",
    "AlternatingDelay",
    "DirectionalSkewDelay",
    "InvalidDelayError",
    "standard_adversaries",
    "DETECT_TIMEOUT",
    "FaultSchedule",
    "FaultScheduleError",
    "ArrivedBatch",
    "NodeInfo",
    "NodeProgram",
    "ProgramSpec",
    "PulseApi",
    "all_nodes_initiate",
    "fixed_initiators",
    "sampled_initiators",
    "single_initiator",
    "SyncResult",
    "SyncRuntime",
    "run_synchronous",
    "AsyncResult",
    "AsyncRuntime",
    "LinkSkeleton",
    "Process",
    "ProcessContext",
    "UnknownLinkError",
    "link_skeleton_for",
    "run_asynchronous",
    "AsyncSweep",
    "CellSummary",
    "default_jobs",
    "digest_outputs",
    "run_serial",
    "run_sharded",
    "topology",
]
