"""Outcome checker: certify a returned matching and classify the instance.

Every matching is certified against the parsed *original* instance, never
the reduced one, and its size is compared with the HiGHS reference for the
instance (reference.py). Classes:

* proved        -- `Optimal`, certified, size equals the reference optimum
                   (or lies in [incumbent, dual bound] where HiGHS hit its cap);
* timeout       -- `FeasibleTimeout` with a certified matching;
* false-optimal -- `Optimal` claimed below the reference incumbent;
* invalid       -- the matching breaks a matching rule, is weakly unstable,
                   or its reported size or serialized text disagrees with it;
* over-bound    -- size above the reference upper bound;
* raised        -- the pipeline raised.

All but proved and timeout are failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from maxhrt.core import Instance, Matching, RankTable, blocking_pairs, validate_matching

PROVED = "proved"
TIMEOUT = "timeout"
FALSE_OPTIMAL = "false-optimal"
INVALID = "invalid"
OVER_BOUND = "over-bound"
RAISED = "raised"
FAILED = frozenset({FALSE_OPTIMAL, INVALID, OVER_BOUND, RAISED})


@dataclass(frozen=True)
class Reference:
    """HiGHS result for one instance: best size found and a proved upper bound."""

    incumbent: int
    upper_bound: int


def certify(instance: Instance, ranks: RankTable, matching: Matching) -> str | None:
    """None if the matching is valid and weakly stable, else the first problem."""
    violations = validate_matching(instance, matching)
    if violations:
        return violations[0].message
    blockers = blocking_pairs(instance, ranks, matching)
    if blockers:
        r, h = blockers[0]
        return f"blocked by (r{r}, h{h})"
    return None


def classify(claimed_optimal: bool, size: int, problem: str | None, ref: Reference) -> str:
    """Class of an instance whose pipeline returned a matching of `size`."""
    if problem is not None:
        return INVALID
    if size > ref.upper_bound:
        return OVER_BOUND
    if not claimed_optimal:
        return TIMEOUT
    if size < ref.incumbent:
        return FALSE_OPTIMAL
    return PROVED


def charged_seconds(outcome: str, wall_s: float, solve_s: float, limit: float) -> float:
    """Time counted for an instance in `proof_s`.

    A proved instance counts as measured. Any other has its solver time
    counted as at least the limit L, so a fast false `Optimal` or a crash
    costs what an honest timeout would.
    """
    if outcome == PROVED:
        return wall_s
    return wall_s - solve_s + max(solve_s, limit)
