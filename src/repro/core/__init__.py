"""The paper's contribution: pulse machinery, registration, BFS, synchronizer."""

from .pulse import (
    COVER_LEVEL_OFFSET,
    cover_level,
    gating_pulses_at,
    level,
    prev,
    prev_prev,
    registration_pulses_at,
    source_pulses,
)
from .registration import (
    CLEAN,
    DIRTY,
    WAITING,
    ClusterView,
    RegistrationModule,
    cluster_views_for,
)
from .cluster_ops import ClusterAggregateModule, and_merge, min_merge
from .gather import GatherModule
from .registry import CoverRegistry
from .thresholded_bfs import UNREACHED, ThresholdedBFSCore
from .bfs_runner import (
    BFSOutcome,
    ThresholdedBFSSweep,
    registry_for_threshold,
    required_cover_radius,
    run_thresholded_bfs,
)
from .multi_stage import run_multi_stage_bfs
from .full_bfs import run_full_bfs
from .synchronizer import SynchronizerSweep, pulse_bound_for, run_synchronized
from .recovery import ChurnOutcome, RecoverySynchronizerProcess, run_churn
from ..net.sweep import bound_process_class, run_sweeps_sharded

__all__ = [
    "COVER_LEVEL_OFFSET", "cover_level", "gating_pulses_at", "level", "prev",
    "prev_prev", "registration_pulses_at", "source_pulses",
    "CLEAN", "DIRTY", "WAITING", "ClusterView", "RegistrationModule",
    "cluster_views_for", "ClusterAggregateModule", "and_merge", "min_merge",
    "GatherModule", "CoverRegistry", "UNREACHED", "ThresholdedBFSCore",
    "BFSOutcome", "registry_for_threshold", "required_cover_radius",
    "run_thresholded_bfs", "run_multi_stage_bfs", "run_full_bfs",
    "pulse_bound_for", "run_synchronized",
    "ChurnOutcome", "RecoverySynchronizerProcess", "run_churn",
    "SynchronizerSweep", "ThresholdedBFSSweep",
    "bound_process_class", "run_sweeps_sharded",
]
