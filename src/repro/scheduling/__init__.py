"""Action workload scheduling (paper Section 5).

The Action Workload Scheduling Problem (Figure 2): given n action
requests, m devices and per-request candidate device sets, assign every
request to a candidate so that the makespan is minimized — with
*sequence-dependent action execution time* (a device's physical status
changes after every action) and machine eligibility restrictions.

Five algorithms, as evaluated in Section 6.3:

* :class:`LerfaSrfeScheduler` — Algorithm 1 (SAP), proposed by the paper
* :class:`SrfaeScheduler` — Algorithm 2 (CAP), proposed by the paper
* :class:`ListScheduler` — classic List Scheduling greedy (CAP baseline)
* :class:`SimulatedAnnealingScheduler` — SA baseline (SAP)
* :class:`RandomScheduler` — the RANDOM baseline

plus :func:`optimal_schedule`, an exact solver for small instances (the
stand-in for the paper's optimal MIP discussion).
"""

from repro.scheduling.base import Schedule, Scheduler
from repro.scheduling.cost_cache import CachingCostModel
from repro.scheduling.lerfa_srfe import LerfaSrfeScheduler
from repro.scheduling.list_scheduling import ListScheduler
from repro.scheduling.executor import ExecutionResult, execute_schedule
from repro.scheduling.metrics import (
    MakespanBreakdown,
    breakdown,
    device_utilization,
    service_makespan,
    total_makespan,
    workload_balance,
)
from repro.scheduling.optimal import optimal_schedule
from repro.scheduling.problem import (
    Problem,
    SchedRequest,
    SchedulingCostModel,
    StaticCostModel,
)
from repro.scheduling.random_sched import RandomScheduler
from repro.scheduling.simulated_annealing import (
    SAParameters,
    SimulatedAnnealingScheduler,
)
from repro.scheduling.srfae import SrfaeScheduler
from repro.scheduling.vector_cost import (
    BlockModelKernel,
    ColumnKernel,
    build_kernel,
)
from repro.scheduling.workload import (
    skewed_camera_workload,
    uniform_camera_workload,
)

__all__ = [
    "BlockModelKernel",
    "CachingCostModel",
    "ColumnKernel",
    "ExecutionResult",
    "LerfaSrfeScheduler",
    "ListScheduler",
    "MakespanBreakdown",
    "Problem",
    "RandomScheduler",
    "SAParameters",
    "SchedRequest",
    "Schedule",
    "Scheduler",
    "SchedulingCostModel",
    "SimulatedAnnealingScheduler",
    "SrfaeScheduler",
    "StaticCostModel",
    "breakdown",
    "build_kernel",
    "device_utilization",
    "execute_schedule",
    "optimal_schedule",
    "service_makespan",
    "skewed_camera_workload",
    "total_makespan",
    "uniform_camera_workload",
    "workload_balance",
]
