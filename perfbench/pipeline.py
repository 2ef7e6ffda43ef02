"""One instance through the user pipeline, timed, traced and checked.

The pipeline calls each module's public functions in order:

    instance_io.parse_instance -> preprocess.hospitals_offer + residents_apply
    (only for strict resident lists) -> core.build_rank_table ->
    ip_model.build_model -> heuristics.warm_start -> solver.solve ->
    certify against the original instance -> instance_io.serialize_matching

The timed region runs from instance text to serialized, certified matching.
Checks against the reference and the serialized text run after it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from maxhrt.core import build_rank_table
from maxhrt.heuristics import warm_start
from maxhrt.instance_io import ParseError, parse_instance, parse_matching, serialize_matching
from maxhrt.ip_model import build_model
from maxhrt.preprocess import ResidentTiesError, hospitals_offer, residents_apply
from maxhrt.solver import SolveOptions, SolveStatus, solve

from checker import FALSE_OPTIMAL, RAISED, Reference, certify, charged_seconds, classify
from spans import Tracer


@dataclass(frozen=True)
class InstanceResult:
    key: str
    outcome: str
    wall_s: float  # timed region, as measured
    solve_s: float  # time inside solver.solve
    charged_s: float  # time counted in proof_s
    size: int  # matched residents returned (0 if the pipeline raised)
    detail: str = ""


def run_instance(
    text: str, key: str, ref: Reference, limit: float, tracer: Tracer
) -> InstanceResult:
    """Time, check and classify one instance; a raising pipeline is a result."""
    solve_s = 0.0
    start = time.perf_counter()
    try:
        with tracer.span("pipeline", key) as root:
            with tracer.span("instance_io.parse", key, root):
                original, _ = parse_instance(text)
            work = original
            try:
                with tracer.span("preprocess.offer", key, root) as span:
                    offered, deleted = hospitals_offer(original)
                    span.counts["deleted"] = len(deleted)
                with tracer.span("preprocess.apply", key, root) as span:
                    work, deleted = residents_apply(offered)
                    span.counts["deleted"] = len(deleted)
            except ResidentTiesError:
                span.counts["skipped"] = 1
            with tracer.span("core.rank", key, root):
                ranks = build_rank_table(work)
            with tracer.span("ip_model.build", key, root) as model_span:
                model = build_model(work, ranks)
            with tracer.span("heuristics.warm", key, root) as warm_span:
                warm = warm_start(work)
                warm_span.counts["size"] = len(warm)
                warm_span.counts["shortfall"] = ref.incumbent - len(warm)
            solve_start = time.perf_counter()
            with tracer.span("solver.solve", key, root) as solver_span:
                outcome = solve(model, SolveOptions(time_limit=limit, warm_start=warm))
            solve_s = time.perf_counter() - solve_start
            with tracer.span("core.certify", key, root) as span:
                if work is not original:
                    with tracer.span("core.rank", key, span):
                        ranks = build_rank_table(original)
                problem = certify(original, ranks, outcome.matching)
                span.counts["failed"] = problem is not None
            with tracer.span("instance_io.serialize", key, root):
                out_text = serialize_matching(outcome.matching, original)
        wall_s = time.perf_counter() - start
    except Exception as exc:  # a crash is a failed instance, not a failed run
        wall_s = time.perf_counter() - start
        charged = charged_seconds(RAISED, wall_s, solve_s, limit)
        return InstanceResult(key, RAISED, wall_s, solve_s, charged, 0, repr(exc))

    size = len(outcome.matching)
    if problem is None and outcome.objective != size:
        problem = f"objective {outcome.objective} but {size} residents matched"
    if problem is None:
        try:
            if parse_matching(out_text, original) != outcome.matching:
                problem = "serialized matching differs from the returned one"
        except ParseError as exc:
            problem = f"serialized matching does not parse: {exc}"
    # Counts that cost time are taken here, after the timed region.
    if tracer.enabled:
        model_span.counts["vars"] = model.num_variables
        model_span.counts["rows"] = len(model.constraints)
        model_span.counts["nnz"] = sum(len(c.coefficients) for c in model.constraints)
    claimed = outcome.status is SolveStatus.OPTIMAL
    result = classify(claimed, size, problem, ref)
    counts = solver_span.counts
    counts["nodes"] = outcome.nodes
    counts["root_proved"] = claimed and outcome.nodes == 1
    counts["timeouts"] = not claimed
    counts["open_gap"] = outcome.proof_bound - outcome.objective
    counts["false_optimal"] = result == FALSE_OPTIMAL
    charged = charged_seconds(result, wall_s, solve_s, limit)
    return InstanceResult(key, result, wall_s, solve_s, charged, size, problem or "")
