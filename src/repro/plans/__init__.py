"""Whole-workload plan compiler: record once, replay as straight-line sends.

The subsystem has four parts:

- :mod:`repro.plans.recorder` — :class:`WorkloadPlanRecorder` captures a
  live workload execution (phases, every CSR dependency round,
  pre-gathered distances, RNG epochs) into a
  schema-versioned :class:`WorkloadPlan`;
- :mod:`repro.plans.store` — :class:`PlanStore` persists plans as
  integrity-checked artifacts with an LRU memory layer on the machine's
  plan-cache counting surface;
- :mod:`repro.plans.workloads` — the recordable workload registry
  (everything derives from ``(workload, shape, n, seed, curve)``);
- :mod:`repro.plans.replay` — :func:`replay` executes stored plans as
  vectorized ``send_plan`` straight-line code with epoch-bounded
  speculation and a scalar-engine differential oracle.
"""

from repro.plans.recorder import (
    PLAN_SCHEMA,
    EpochOp,
    PhaseEnterOp,
    PhaseExitOp,
    PlanOp,
    PlanRefOp,
    StepOp,
    WorkloadPlan,
    WorkloadPlanRecorder,
    coin_digest,
)
from repro.plans.replay import (
    PLAN_REF_RESOLVERS,
    RecordResult,
    ReplayResult,
    execute_plan,
    record,
    replay,
    verify_against_oracle,
)
from repro.plans.store import (
    MAGIC,
    LRUPlanCache,
    PlanStore,
    load_plan,
    read_plan_header,
    save_plan,
)
from repro.plans.workloads import (
    TREE_SHAPES,
    WORKLOADS,
    PreparedRun,
    WorkloadSpec,
    get_workload,
    input_digest,
    make_tree,
    tree_digest,
)

__all__ = [
    "PLAN_SCHEMA",
    "MAGIC",
    "EpochOp",
    "PhaseEnterOp",
    "PhaseExitOp",
    "PlanOp",
    "PlanRefOp",
    "StepOp",
    "WorkloadPlan",
    "WorkloadPlanRecorder",
    "coin_digest",
    "PLAN_REF_RESOLVERS",
    "RecordResult",
    "ReplayResult",
    "execute_plan",
    "record",
    "replay",
    "verify_against_oracle",
    "LRUPlanCache",
    "PlanStore",
    "load_plan",
    "read_plan_header",
    "save_plan",
    "TREE_SHAPES",
    "WORKLOADS",
    "PreparedRun",
    "WorkloadSpec",
    "get_workload",
    "input_digest",
    "make_tree",
    "tree_digest",
]
