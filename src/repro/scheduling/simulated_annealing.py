"""SA: simulated annealing for unrelated parallel machines (SAP baseline).

Modelled on the algorithm of Anagnostopoulos & Rabadi (the paper's [2]),
which handles all three restrictions of the problem: unrelated machines,
sequence-dependent setup (here: execution) times, and machine
eligibility. A solution is a full assignment-plus-sequencing; neighbour
moves relocate one request or swap two; acceptance follows the
Metropolis criterion with geometric cooling.

As in the paper's Figure 5, SA's makespans can be competitive but its
*scheduling time* is orders of magnitude above the greedy heuristics —
that is the point of including it. The implementation evaluates moves
*incrementally*: per-device prefix-completion arrays mean a
relocate/swap re-estimates only the changed suffix of the touched
queues instead of re-walking whole queues (and, before this change,
every queue on infeasible proposals). Incremental evaluation is
bit-identical to full re-evaluation — completions accumulate
left-to-right either way — so schedules are unchanged; only the
wall-clock cost per move shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.errors import SchedulingError
from repro.scheduling.base import CATEGORY_SAP, Scheduler
from repro.scheduling.problem import Problem, SchedRequest


@dataclass(frozen=True)
class SAParameters:
    """Annealing schedule knobs.

    The defaults are tuned so an n=20, m=10 instance costs on the order
    of a second of scheduling time — far above the greedy algorithms,
    reproducing the paper's time-breakdown shape.
    """

    #: Initial temperature as a fraction of the initial makespan.
    initial_temp_factor: float = 0.5
    #: Geometric cooling multiplier per temperature step.
    cooling: float = 0.95
    #: Candidate moves evaluated at each temperature, per request.
    moves_per_temperature_per_request: int = 60
    #: Stop when temperature falls below this fraction of the initial.
    min_temp_fraction: float = 1e-3
    #: Hard cap on total move evaluations (safety valve).
    max_evaluations: int = 2_000_000

    def __post_init__(self) -> None:
        if not 0 < self.cooling < 1:
            raise SchedulingError(f"cooling must be in (0,1), got {self.cooling}")
        if self.initial_temp_factor <= 0:
            raise SchedulingError("initial_temp_factor must be positive")


class IncrementalMakespan:
    """Per-device prefix-completion arrays over one mutable solution.

    For every device queue the evaluator stores, per position, the
    cumulative completion time and the device's physical status after
    servicing that position. A move that first changes position ``i``
    of a queue only needs the suffix from ``i`` re-estimated — the
    stored prefix is, by construction, exactly what a full left-to-right
    walk would have produced, so incremental and full evaluation agree
    bit-for-bit (asserted by the property tests).

    Usage: mutate the solution's queues in place, then call
    :meth:`preview` with the first changed index per touched device;
    :meth:`commit` applies a previewed result, otherwise undo the
    mutation and the stored state remains valid.
    """

    def __init__(self, problem: Problem,
                 solution: Dict[str, List[SchedRequest]]) -> None:
        self._problem = problem
        self._solution = solution
        self._prefix: Dict[str, List[Tuple[float, Any]]] = {
            device_id: self._walk(device_id, 0.0,
                                  problem.cost_model.initial_status(device_id),
                                  solution[device_id])
            for device_id in problem.device_ids}
        self.completions: Dict[str, float] = {
            device_id: (prefix[-1][0] if prefix else 0.0)
            for device_id, prefix in self._prefix.items()}
        self.makespan = max(self.completions.values())
        self._argmax = max(self.completions, key=self.completions.get)

    def _walk(self, device_id: str, elapsed: float, status: Any,
              queue: List[SchedRequest]) -> List[Tuple[float, Any]]:
        estimate = self._problem.cost_model.estimate
        tail: List[Tuple[float, Any]] = []
        for request in queue:
            seconds, status = estimate(request, device_id, status)
            elapsed += seconds
            tail.append((elapsed, status))
        return tail

    def preview(
        self, touched: Dict[str, int]
    ) -> Tuple[float, Dict[str, Tuple[int, List[Tuple[float, Any]]]]]:
        """Evaluate the mutated queues without committing.

        ``touched`` maps each modified device to the first queue index
        whose occupant changed. Returns the new makespan and the
        recomputed suffixes (for :meth:`commit`).
        """
        tails: Dict[str, Tuple[int, List[Tuple[float, Any]]]] = {}
        new_completions: Dict[str, float] = {}
        for device_id, first_changed in touched.items():
            prefix = self._prefix[device_id]
            first_changed = min(first_changed, len(prefix))
            if first_changed == 0:
                elapsed = 0.0
                status = self._problem.cost_model.initial_status(device_id)
            else:
                elapsed, status = prefix[first_changed - 1]
            tail = self._walk(device_id, elapsed, status,
                              self._solution[device_id][first_changed:])
            tails[device_id] = (first_changed, tail)
            if tail:
                new_completions[device_id] = tail[-1][0]
            else:
                new_completions[device_id] = elapsed
        if self._argmax in touched:
            # The current maximum may have shrunk: recompute over all
            # devices (rare — only when a move touches the critical
            # device).
            new_makespan = max(
                new_completions.get(device_id, completion)
                for device_id, completion in self.completions.items())
        else:
            new_makespan = max(self.makespan, *new_completions.values())
        return new_makespan, tails

    def commit(self, new_makespan: float,
               tails: Dict[str, Tuple[int, List[Tuple[float, Any]]]]) -> None:
        """Apply a previewed evaluation to the stored prefix arrays."""
        for device_id, (first_changed, tail) in tails.items():
            prefix = self._prefix[device_id]
            prefix[first_changed:] = tail
            self.completions[device_id] = prefix[-1][0] if prefix else 0.0
        self.makespan = new_makespan
        if (self._argmax in tails
                or self.completions[self._argmax] != new_makespan):
            self._argmax = max(self.completions, key=self.completions.get)


class SimulatedAnnealingScheduler(Scheduler):
    """Simulated annealing over assignments and per-device sequences."""

    name = "SA"
    category = CATEGORY_SAP
    #: Every previewed move re-walks a queue suffix most of whose
    #: (request, device, status) triples an earlier move already costed.
    memoizes = True

    def __init__(self, seed: int = 0,
                 parameters: SAParameters | None = None) -> None:
        super().__init__(seed)
        self.parameters = parameters or SAParameters()
        #: Move-evaluation count of the last run, for reporting.
        self.evaluations = 0

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _initial_solution(
        self, problem: Problem
    ) -> Dict[str, List[SchedRequest]]:
        solution: Dict[str, List[SchedRequest]] = {
            device_id: [] for device_id in problem.device_ids}
        for request in problem.requests:
            solution[self.rng.choice(request.candidates)].append(request)
        for queue in solution.values():
            self.rng.shuffle(queue)
        return solution

    def _solve(self, problem: Problem) -> Dict[str, List[str]]:
        params = self.parameters
        solution = self._initial_solution(problem)
        evaluator = IncrementalMakespan(problem, solution)
        self._evaluator = evaluator
        makespan = evaluator.makespan
        best_solution = {d: list(q) for d, q in solution.items()}
        best_makespan = makespan

        temperature = max(makespan * params.initial_temp_factor, 1e-9)
        floor = temperature * params.min_temp_fraction
        moves_per_temp = max(
            params.moves_per_temperature_per_request * problem.n_requests, 1)
        self.evaluations = 0

        # The annealing budget counts *feasible* candidate moves per
        # temperature; infeasible proposals are penalty-evaluated and
        # redrawn (capped), so heavily restricted instances burn far
        # more wall time per temperature — the paper's Figure 6 effect.
        draw_cap_per_temp = 20 * moves_per_temp
        while temperature > floor and self.evaluations < params.max_evaluations:
            feasible_moves = 0
            draws = 0
            while (feasible_moves < moves_per_temp
                   and draws < draw_cap_per_temp):
                draws += 1
                self.evaluations += 1
                touched = self._propose_move(problem, solution)
                if not touched:
                    continue
                feasible_moves += 1
                new_makespan, tails = evaluator.preview(touched)
                delta = new_makespan - makespan
                if delta <= 0 or (self.rng.random()
                                  < math.exp(-delta / temperature)):
                    evaluator.commit(new_makespan, tails)
                    makespan = new_makespan
                    if makespan < best_makespan:
                        best_makespan = makespan
                        best_solution = {d: list(q)
                                         for d, q in solution.items()}
                else:
                    self._undo_move(solution)
                if self.evaluations >= params.max_evaluations:
                    break
            temperature *= params.cooling

        return {device_id: [r.request_id for r in queue]
                for device_id, queue in best_solution.items()}

    # ------------------------------------------------------------------
    # Moves (with single-level undo)
    # ------------------------------------------------------------------
    def _propose_move(
        self, problem: Problem, solution: Dict[str, List[SchedRequest]]
    ) -> Dict[str, int]:
        """Mutate ``solution`` in place; returns the touched devices,
        each mapped to the first queue index that changed.

        Records enough state for :meth:`_undo_move`. Returns an empty
        mapping when the sampled move is infeasible.
        """
        if self.rng.random() < 0.5:
            return self._move_relocate(problem, solution)
        return self._move_swap(problem, solution)

    def _penalty_evaluation(
        self, problem: Problem, solution: Dict[str, List[SchedRequest]],
        device_ids: List[str],
    ) -> float:
        """Evaluate an eligibility-violating proposal, then reject it.

        Anagnostopoulos & Rabadi's SA searches the unrestricted move
        space and handles machine eligibility by penalizing violating
        solutions in the objective. The queues themselves are unchanged
        by a rejected proposal, so the global objective is the stored
        makespan plus the (infinite, here) penalty term — an O(m) read
        of the prefix-completion arrays rather than a re-walk of every
        queue. Under skewed candidate sets a large fraction of
        proposals is infeasible and burns draw budget, which is what
        keeps SA's scheduling time dominant in the paper's Figure 6.
        """
        return max(self._evaluator.completions.values())

    def _move_relocate(
        self, problem: Problem, solution: Dict[str, List[SchedRequest]]
    ) -> Dict[str, int]:
        request = self.rng.choice(problem.requests)
        source = next(d for d, q in solution.items() if request in q)
        # Unrestricted proposal; eligibility enforced via the penalty.
        target = self.rng.choice(problem.device_ids)
        if target not in request.candidates:
            self._penalty_evaluation(problem, solution, [source, target])
            return {}
        source_queue = solution[source]
        source_index = source_queue.index(request)
        source_queue.pop(source_index)
        target_index = self.rng.randint(0, len(solution[target]))
        solution[target].insert(target_index, request)
        self._undo = ("relocate", request, source, source_index, target)
        if source == target:
            return {source: min(source_index, target_index)}
        return {source: source_index, target: target_index}

    def _move_swap(
        self, problem: Problem, solution: Dict[str, List[SchedRequest]]
    ) -> Dict[str, int]:
        if problem.n_requests < 2:
            return {}
        first, second = self.rng.sample(list(problem.requests), 2)
        device_first = next(d for d, q in solution.items() if first in q)
        device_second = next(d for d, q in solution.items() if second in q)
        # Eligibility: each must be allowed on the other's device;
        # violating swaps are penalty-evaluated and rejected.
        if (device_second not in first.candidates
                or device_first not in second.candidates):
            self._penalty_evaluation(problem, solution,
                                     [device_first, device_second])
            return {}
        queue_first, queue_second = solution[device_first], solution[device_second]
        i, j = queue_first.index(first), queue_second.index(second)
        queue_first[i], queue_second[j] = second, first
        self._undo = ("swap", first, second, device_first, i,
                      device_second, j)
        if device_first == device_second:
            return {device_first: min(i, j)}
        return {device_first: i, device_second: j}

    def _undo_move(self, solution: Dict[str, List[SchedRequest]]) -> None:
        undo = self._undo
        if undo[0] == "relocate":
            _, request, source, source_index, target = undo
            solution[target].remove(request)
            solution[source].insert(source_index, request)
        else:
            _, first, second, device_first, i, device_second, j = undo
            solution[device_first][i] = first
            solution[device_second][j] = second
