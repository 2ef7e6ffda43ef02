"""Exact maximization of the pair-variable model in four phases.

1. **Warm start.** Building the search certifies a weakly stable matching
   (tie-breaking plus deferred acceptance, computed if not supplied) as the
   first incumbent, then starts the clock: a cutoff still returns a matching.
2. **Root.** Four stages, each run only while the incumbent is below the
   root bound; propagation only fixes pairs, so an incumbent that meets the
   bound is optimal, proved at the root node.
   a. The first bound counts the residents with a column, so a warm start
      that matches all of them returns before anything is propagated.
   b. The bound becomes a capacitated bipartite matching relaxation that
      ignores stability rows, grown from the incumbent's placement with
      nothing fixed. Promotion starts (Király's deferred acceptance,
      `heuristics.promotion_starts`, where a tied resident applies first
      to a hospital in its tie with a free post) are tried, each before
      the deadline, and the largest is kept: seeds 0 to PROMOTION_TRIES - 1.
      Beyond seed 0 a seed also shuffles the proposal order, so the tries
      differ even where every resident's list is strict.
   c. Propagation with nothing fixed (only here does a failed one raise
      `SolverInternalError`), then the bound again from a fresh placement.
   d. An incumbent one below the bound leaves only maximum placements of
      the relaxation to find, so the root fixes to 0 every pair in none of
      them and to 1 every pair in all of them, read off the
      Dulmage-Mendelsohn structure of one maximum placement (as in Régin's
      matching-based filtering), then propagates and recomputes the bound
      until nothing new is fixed. A failed propagation, or a bound that
      drops to the incumbent, proves the incumbent optimal at the root.
      These fixings are made before the search's first branch and are
      never undone.
3. **Branch and bound**, depth first. Branching picks an unfixed pair of a
   currently unmatched resident, following the relaxation's placement
   (best resident rank first, ties broken by a fixed permutation of the
   pairs), and tries x=1 first. The stack holds a (trail mark, column)
   entry for each node whose x=0 branch is untried. A node whose fresh
   placement offers no unfixed pair is closed: its bound is the number of
   residents already matched, reached only by the zero completion, which
   `_propagate` has already certified. Propagation applies the
   one-hospital-per-resident and capacity rows eagerly; stability rows are
   read as "the resident gets this hospital or better, or the hospital
   fills up with residents it ranks at least as high", which yields both
   conflict detection and unit-style forcing. Each round of propagation
   rescans only the hospitals whose rows' inputs changed: a fixing or undo
   on resident i's pairs marks every hospital on i's list. Subtrees are
   pruned against the relaxation, which repairs the previous node's
   placement (fixed residents moved in, pairs fixed to 0 and overfull
   hospitals cleared) and then augments only the residents left unplaced,
   so the bound is exact integral arithmetic throughout.
4. **Race.** A search still open after ESCALATE_AFTER_NODES nodes forks a
   child that runs HiGHS within the time left (see `highs`). The child
   builds the model's tie-count form from the pair index, with one
   cumulative column per hospital tie in place of the paper's hospital
   prefixes, because HiGHS solves it several times faster. The child
   spends most of a second importing scipy, so the parent first goes on
   with the next promotion seeds, up to RACE_TRIES in all, until one
   meets the root bound, the deadline passes, or the child has an
   optimum. The search then goes on and polls the child at each deadline
   check; whichever finishes first wins. The child answers with an
   optimum or with nothing. A HiGHS optimum becomes the incumbent only
   through `core.certify`; one below the incumbent contradicts a
   certified matching, and the solve raises `SolverInternalError`. A
   child that ends without one (or a host without scipy or `os.fork`)
   leaves the search to run as it would alone. The child is
   killed and reaped before the solve returns, on every path. Such a
   proof rests on HiGHS's floating-point tolerances rather than the
   search's integral bound, and past the threshold the returned matching
   and node count depend on which side finishes first.

The search and the HiGHS child read the model's pair index (`pairs`, each
column's resident and hospital; each agent's columns best first; each
pair's ranks) and never the model's rows. A warm start passes
`core.certify` first, so each of its pairs is acceptable, its hospital has
a post, and it has a column.

Every matching that becomes the incumbent (warm start, promotion start,
search leaf or HiGHS optimum) passes `core.certify` against the model's instance.
Hitting the wall-clock cutoff returns the incumbent with the root
relaxation as the surviving proof bound.
"""

from __future__ import annotations

import enum
import functools
import random
import time
from dataclasses import dataclass
from typing import Callable

from . import highs
from .core import Matching, certify
from .draws import shuffle
from .heuristics import promotion_starts
from .heuristics import warm_start as default_warm_start
from .ip_model import IpModel
from .relaxation import max_placement, structural_fixings

_UNFIXED = -1
_BIG = 1 << 30
# Seeds the root tries on every instance, each a promotion start.
PROMOTION_TRIES = 32
# Seeds tried in all, root included, once the HiGHS race starts.
RACE_TRIES = 256
# Nodes after which a search with the gap still open races HiGHS in a child.
ESCALATE_AFTER_NODES = 1000


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    FEASIBLE_TIMEOUT = "FeasibleTimeout"


class SolverInternalError(RuntimeError):
    """An invariant the search relies on failed; results would be unsound."""


@dataclass(frozen=True)
class SolveOptions:
    time_limit: float = 300.0
    warm_start: Matching | None = None

    def __post_init__(self) -> None:
        if not self.time_limit > 0:
            raise ValueError("time limit must be positive")


@dataclass(frozen=True)
class SolveOutcome:
    status: SolveStatus
    matching: Matching
    objective: int
    nodes: int
    wall_time: float
    proof_bound: int


class _Search:
    def __init__(self, model: IpModel, options: SolveOptions):
        self.model = model
        instance = model.instance
        nvars = model.num_variables
        self.n1, self.n2 = instance.n1, instance.n2
        self.caps = [instance.capacity(j) for j in range(1, self.n2 + 1)]
        self.var_res = [i - 1 for i, _ in model.pairs]
        self.var_hosp = [j - 1 for _, j in model.pairs]
        # the model's pair index: each agent's columns best first, their ranks
        self.var_rrank = model.res_rank
        self.var_hrank = model.hosp_rank
        self.res_vars = model.res_columns
        self.hosp_vars = model.hosp_columns

        self.state = [_UNFIXED] * nvars
        self.trail: list[int] = []
        self.res_match = [-1] * self.n1
        self.res_nonzero = [len(vs) for vs in self.res_vars]
        self.hosp_ones = [0] * self.n2
        self.total_ones = 0
        self.nodes = 1  # the root

        # A row (i, j) reads the states of j's variables, res_match[i] and
        # i's variables, so a state change of resident i makes every hospital
        # on i's list dirty. Fixings and undos only mark the resident (once,
        # however many of its pairs change); _scan expands the marked
        # residents to their hospitals, then reads only dirty hospitals. A
        # clean hospital was scanned in the current state. At the root every
        # hospital is dirty.
        self.res_dirty = [False] * self.n1
        self.dirty_res: list[int] = []
        self.hosp_dirty = [True] * self.n2
        self.dirty_hosp = list(range(self.n2))

        # column per resident in the latest relaxation placement (-1: none);
        # diving along it tries to realize the bound, so that proving and
        # finding meet in the middle, and the next bound repairs it
        self.guide = [-1] * self.n1
        self.child: highs.Child | None = None  # the HiGHS race, once started
        # promotion starts: the seed -> matching function, built at the first try
        self.promote: Callable[[int], Matching] | None = None
        self.next_seed = 0

        incumbent = options.warm_start
        if incumbent is None:
            incumbent = default_warm_start(instance)
        problem = certify(instance, incumbent)
        if problem is not None:
            raise ValueError(f"warm start {problem}")
        self.incumbent = incumbent
        self.incumbent_size = len(incumbent)
        # the clock starts once the search holds its certified warm start
        self.start = time.monotonic()
        self.deadline = self.start + options.time_limit

    @functools.cached_property
    def priority(self) -> list[int]:
        """The branching tie-break: a fixed permutation of the columns."""
        priority = list(range(self.model.num_variables))
        shuffle(priority, 0, len(priority), random.Random(0).getrandbits)
        return priority

    # -- state updates ----------------------------------------------------

    def _fix_queue(self, assignments: list[tuple[int, int]]) -> bool:
        state = self.state
        res_dirty = self.res_dirty
        queue = list(assignments)
        ptr = 0
        while ptr < len(queue):
            v, value = queue[ptr]
            ptr += 1
            current = state[v]
            if current == value:
                continue
            if current != _UNFIXED:
                return False
            i = self.var_res[v]
            # Fail before the write: _undo_to reverts every trailed 1 as a
            # counted match, so a 1 must never be trailed uncounted.
            if value == 1 and self.res_match[i] >= 0:
                return False
            state[v] = value
            self.trail.append(v)
            if not res_dirty[i]:
                res_dirty[i] = True
                self.dirty_res.append(i)
            if value == 1:
                self.res_match[i] = v
                self.total_ones += 1
                j = self.var_hosp[v]
                self.hosp_ones[j] += 1
                if self.hosp_ones[j] > self.caps[j]:
                    return False
                for w in self.res_vars[i]:
                    if w != v and state[w] != 0:
                        queue.append((w, 0))
                if self.hosp_ones[j] == self.caps[j]:
                    for w in self.hosp_vars[j]:
                        if state[w] == _UNFIXED:
                            queue.append((w, 0))
            else:
                self.res_nonzero[i] -= 1
        return True

    def _undo_to(self, mark: int) -> None:
        state = self.state
        trail = self.trail
        res_dirty = self.res_dirty
        while len(trail) > mark:
            v = trail.pop()
            i = self.var_res[v]
            if state[v] == 1:
                self.res_match[i] = -1
                self.hosp_ones[self.var_hosp[v]] -= 1
                self.total_ones -= 1
            else:
                self.res_nonzero[i] += 1
            state[v] = _UNFIXED
            if not res_dirty[i]:
                res_dirty[i] = True
                self.dirty_res.append(i)

    def _best_rank(self, i: int) -> int:
        m = self.res_match[i]
        if m >= 0:
            return self.var_rrank[m]
        state = self.state
        for w in self.res_vars[i]:
            if state[w] != 0:
                return self.var_rrank[w]
        return _BIG

    # -- stability reasoning ----------------------------------------------

    def _scan(self) -> list[int] | None:
        """One pass over the stability rows of the dirty hospitals.

        Returns the variables forced to 1, or None on a row that no
        completion can satisfy. They equal those of a pass over every
        hospital: a clean hospital forces nothing new, since applying what
        it forced last made it dirty again. A hospital with a conflict
        stays dirty. A hospital's scan stops at the first tie whose prefix
        is filled by its ones or holds more open columns than posts: the
        prefix counts only grow, so no later row can conflict or force.
        """
        state = self.state
        var_res = self.var_res
        var_hosp = self.var_hosp
        var_rrank = self.var_rrank
        var_hrank = self.var_hrank
        res_match = self.res_match
        res_vars = self.res_vars
        res_dirty = self.res_dirty
        hosp_dirty = self.hosp_dirty
        dirty_hosp = self.dirty_hosp
        for i in self.dirty_res:
            res_dirty[i] = False
            for w in res_vars[i]:
                j = var_hosp[w]
                if not hosp_dirty[j]:
                    hosp_dirty[j] = True
                    dirty_hosp.append(j)
        self.dirty_res.clear()
        forced: list[int] = []
        while dirty_hosp:
            j = dirty_hosp[-1]
            c = self.caps[j]
            vs = self.hosp_vars[j]
            nonzero = ones = 0
            idx = 0
            count = len(vs)
            while idx < count:
                block_rank = var_hrank[vs[idx]]
                start = idx
                while idx < count and var_hrank[vs[idx]] == block_rank:
                    s = state[vs[idx]]
                    if s != 0:
                        nonzero += 1
                        if s == 1:
                            ones += 1
                    idx += 1
                if ones >= c or nonzero > c:
                    break
                for k in range(start, idx):
                    v = vs[k]
                    i = var_res[v]
                    rr = var_rrank[v]
                    m = res_match[i]
                    if m >= 0 and var_rrank[m] <= rr:
                        continue
                    best = self._best_rank(i)
                    if best > rr:
                        # resident side dead: hospital must fill this prefix
                        if nonzero < c:
                            return None
                        if nonzero == c:
                            for w in vs[:idx]:
                                if state[w] == _UNFIXED:
                                    forced.append(w)
                    elif nonzero < c:
                        # prefix can never fill: resident must take rank <= rr
                        candidate = -1
                        options = 0
                        for w in res_vars[i]:
                            if var_rrank[w] > rr:
                                break
                            if state[w] != 0:
                                options += 1
                                candidate = w
                        if options == 1:
                            forced.append(candidate)
            dirty_hosp.pop()
            hosp_dirty[j] = False
        return forced

    def _propagate(self, assignments: list[tuple[int, int]]) -> bool:
        if not self._fix_queue(assignments):
            return False
        while True:
            forced = self._scan()
            if forced is None:
                return False
            if not forced:
                break
            if not self._fix_queue([(w, 1) for w in forced]):
                return False
        if self.total_ones > self.incumbent_size:
            # the zero completion is feasible exactly when its matching is stable
            ones = Matching.from_pairs(self.model.pairs[m] for m in self.res_match if m >= 0)
            if certify(self.model.instance, ones) is None:
                self.incumbent = ones
                self.incumbent_size = len(ones)
        return True

    def _adopt(self, matching: Matching, source: str) -> None:
        """Make a certified matching the incumbent."""
        problem = certify(self.model.instance, matching)
        if problem is not None:
            raise SolverInternalError(f"{source} {problem}")
        self.incumbent = matching
        self.incumbent_size = len(matching)

    def _try_seeds(self, target: int, stop: int) -> None:
        """Raise the incumbent toward `target` with promotion starts.

        Tries the seeds from `next_seed` up to `stop` - 1, and stops once the
        incumbent meets `target` (then it is proved optimal), at the
        deadline, or once the HiGHS child has an optimum.
        """
        while (
            self.next_seed < stop
            and self.incumbent_size < target
            and time.monotonic() <= self.deadline
            and (self.child is None or highs.poll(self.child) is None)
        ):
            if self.promote is None:
                self.promote = promotion_starts(self.model.instance)
            seed = self.next_seed
            self.next_seed += 1
            candidate = self.promote(seed)
            if len(candidate) > self.incumbent_size:
                self._adopt(candidate, f"promotion start (seed {seed})")

    # -- bounding -----------------------------------------------------------

    def _quick_bound(self) -> int:
        """Matched residents plus unmatched ones with an open column: bounds every completion."""
        total = self.total_ones
        res_match = self.res_match
        res_nonzero = self.res_nonzero
        for i in range(self.n1):
            if res_match[i] < 0 and res_nonzero[i] > 0:
                total += 1
        return total

    def _relaxation_bound(self) -> int:
        """The relaxation's maximum, repairing the previous placement."""
        return max_placement(
            self.caps, self.var_hosp, self.res_vars, self.state, self.res_match, self.guide
        )

    def _structural_fixings(self) -> list[tuple[int, int]]:
        """The fixings every maximum placement agrees on; `self.guide` is one."""
        return structural_fixings(
            self.caps, self.var_res, self.var_hosp, self.res_vars, self.hosp_vars,
            self.state, self.res_match, self.guide,
        )

    def _select_guided(self) -> int:
        """Unfixed pair of an unmatched resident along the relaxation guide."""
        state = self.state
        priority = self.priority  # a cached property: slower to read on self
        best = -1
        best_key = (_BIG, _BIG)
        for i in range(self.n1):
            if self.res_match[i] >= 0:
                continue
            col = self.guide[i]
            if col < 0 or state[col] != _UNFIXED:
                continue
            key = (self.var_rrank[col], priority[col])
            if key < best_key:
                best_key = key
                best = col
        return best

    def _select_var(self) -> int:
        chosen = self._select_guided()
        if chosen >= 0:
            return chosen
        self._relaxation_bound()  # refresh the guide against current fixings
        # -1 closes the node: the fresh placement leaves every unmatched
        # resident unplaced, so the bound is total_ones, and the only
        # completion that large is the zero one, which _propagate has
        # already certified
        return self._select_guided()

    # -- main loop ----------------------------------------------------------

    def _race(self, root_bound: int) -> bool:
        """Start the HiGHS child, or read its answer; True once the incumbent is proved.

        Right after the fork the child spends most of a second importing
        scipy, so the parent tries more promotion starts first.
        """
        if self.child is None:
            self.child = highs.start(self.model, self.deadline)
            self._try_seeds(root_bound, RACE_TRIES)
            if self.incumbent_size >= root_bound:
                return True
        columns = highs.poll(self.child)
        if columns is None:
            return False  # still working, or ended without an optimum
        matching = Matching.from_pairs(self.model.pairs[c] for c in columns)
        if len(matching) < self.incumbent_size:
            raise SolverInternalError(f"HiGHS optimum {len(matching)} is below the incumbent")
        self._adopt(matching, "HiGHS optimum")
        return True

    def run(self) -> SolveOutcome:
        try:
            root_bound = self._quick_bound()  # the residents with a column
            if self.incumbent_size < root_bound:
                for r, h in self.incumbent.assignment.items():
                    self.guide[r - 1] = next(
                        c for c in self.res_vars[r - 1] if self.var_hosp[c] == h - 1
                    )
                root_bound = self._relaxation_bound()
                self._try_seeds(root_bound, PROMOTION_TRIES)
            if self.incumbent_size < root_bound:
                if not self._propagate([]):
                    raise SolverInternalError("root propagation found no stable matching")
                self.guide = [-1] * self.n1  # the search starts from a fresh placement
                root_bound = self._relaxation_bound()
            if self.incumbent_size == root_bound - 1:
                # any better matching is a maximum placement: fix what they all agree on
                while fixings := self._structural_fixings():
                    if (
                        not self._propagate(fixings)
                        or self._relaxation_bound() <= self.incumbent_size
                    ):
                        root_bound = self.incumbent_size  # no better matching is left
                        break
            timed_out = False
            stack: list[tuple[int, int]] = []
            while self.incumbent_size < root_bound:  # an incumbent at the root bound is optimal
                if time.monotonic() > self.deadline:
                    timed_out = True
                    break
                if self.nodes >= ESCALATE_AFTER_NODES and self._race(root_bound):
                    break  # HiGHS, or a promotion start at the bound, proved the incumbent
                v = self._select_var()
                if v >= 0:
                    b0 = self._quick_bound()
                    best = self.incumbent_size
                    if b0 > best and (b0 - best > 2 or self._relaxation_bound() > best):
                        stack.append((len(self.trail), v))
                        self.nodes += 1
                        if self._propagate([(v, 1)]):
                            continue
                while stack:
                    mark, var = stack.pop()
                    self._undo_to(mark)
                    self.nodes += 1
                    if self._propagate([(var, 0)]):
                        break
                else:
                    break  # every branch is closed: the incumbent is optimal

            return SolveOutcome(
                status=SolveStatus.FEASIBLE_TIMEOUT if timed_out else SolveStatus.OPTIMAL,
                matching=self.incumbent,
                objective=self.incumbent_size,
                nodes=self.nodes,
                wall_time=time.monotonic() - self.start,
                proof_bound=root_bound if timed_out else self.incumbent_size,
            )
        finally:
            if self.child is not None:
                highs.close(self.child)


def solve(model: IpModel, options: SolveOptions | None = None) -> SolveOutcome:
    """Maximize matched residents over the model's feasible 0/1 points.

    Always returns a weakly stable matching: the warm start guarantees an
    incumbent even when the cutoff strikes immediately. The warm start is
    certified when the search is built, and the time limit counts from then.
    """
    return _Search(model, options or SolveOptions()).run()
