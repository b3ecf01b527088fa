"""The iC2mpi platform core: node stores, compute/communicate sweeps,
dynamic load balancing, task migration, and the platform driver."""

from .bsp import VertexContext, VertexProgram, run_vertex_program
from .buffers import BUFFER_RECORD_TYPE, CommBuffers
from .checkpoint import Checkpoint, CheckpointError, Checkpointer
from .compute import (
    ComputeContext,
    NodeFn,
    NodeView,
    TAG_SHADOW,
    superstep,
)
from .config import ConfigError, PlatformConfig, PlatformCosts
from .integrity import (
    TAG_INTEGRITY,
    CorruptionClaim,
    IntegrityDecision,
    IntegrityGuard,
    inject_memory_flips,
)
from .loadbalance import (
    BusyIdlePair,
    CentralizedHeuristicBalancer,
    DiffusionBalancer,
    GreedyPairBalancer,
    LoadBalancer,
    build_processor_edges,
)
from .migration import (
    MigrationEvent,
    TAG_MIGRATE,
    load_balance_phase,
    migrate_node,
    select_migrating_node,
)
from .node import INTERNAL, PERIPHERAL, NodeData, OwnNode
from .nodestore import NodeStore
from .soastore import BulkView, SoAStore
from .phases import PHASE_NAMES, PhaseTimes
from .platform import ICPlatform, PlatformResult, RankOutcome, run_platform
from .recovery import (
    TAG_RECOVERY,
    ShrinkOutcome,
    redistribute_lost_nodes,
    send_dying_checkpoint,
    shrink_reconfigure,
)
from .repartition import measured_node_weights, repartition_phase
from .trace import (
    ExecutionTrace,
    IntegrityRecord,
    IterationRecord,
    ReconfigurationRecord,
)

__all__ = [
    "BUFFER_RECORD_TYPE",
    "BulkView",
    "BusyIdlePair",
    "CentralizedHeuristicBalancer",
    "Checkpoint",
    "CheckpointError",
    "Checkpointer",
    "CommBuffers",
    "ComputeContext",
    "ConfigError",
    "CorruptionClaim",
    "DiffusionBalancer",
    "ExecutionTrace",
    "IntegrityDecision",
    "IntegrityGuard",
    "IntegrityRecord",
    "IterationRecord",
    "GreedyPairBalancer",
    "ICPlatform",
    "INTERNAL",
    "LoadBalancer",
    "MigrationEvent",
    "NodeData",
    "NodeFn",
    "NodeStore",
    "NodeView",
    "OwnNode",
    "PERIPHERAL",
    "PHASE_NAMES",
    "PhaseTimes",
    "PlatformConfig",
    "PlatformCosts",
    "PlatformResult",
    "RankOutcome",
    "ReconfigurationRecord",
    "ShrinkOutcome",
    "SoAStore",
    "TAG_INTEGRITY",
    "TAG_MIGRATE",
    "TAG_RECOVERY",
    "TAG_SHADOW",
    "VertexContext",
    "VertexProgram",
    "build_processor_edges",
    "inject_memory_flips",
    "measured_node_weights",
    "redistribute_lost_nodes",
    "repartition_phase",
    "run_vertex_program",
    "load_balance_phase",
    "migrate_node",
    "run_platform",
    "select_migrating_node",
    "send_dying_checkpoint",
    "shrink_reconfigure",
    "superstep",
]
