"""Self-tests of the benchmark's checker, time charging and spans.

Run from the repository root: python3 -m pytest -q perfbench
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pipeline  # noqa: E402
from checker import (  # noqa: E402
    FALSE_OPTIMAL,
    INVALID,
    OVER_BOUND,
    PROVED,
    RAISED,
    TIMEOUT,
    Reference,
    certify,
    charged_seconds,
    classify,
)
from maxhrt.core import Matching, build_rank_table  # noqa: E402
from maxhrt.instance_io import parse_instance  # noqa: E402
from maxhrt.solver import SolveOutcome, SolveStatus  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

# The six-resident example instance; its largest weakly stable matching has
# size 6 (M1), and M0 is a weakly stable matching of size 5.
EXAMPLE = """\
6 3
r1: h1 h2
r2: h1
r3: h1 h3
r4: h2
r5: h2 h3
r6: h1 h2
h1: 2: r1 r2 r3 r6
h2: 2: r2 r1 r6 ( r4 r5 )
h3: 2: r5 r3
"""
M0 = Matching.from_pairs([(1, 1), (2, 1), (3, 3), (5, 2), (6, 2)])
M1 = Matching.from_pairs([(1, 1), (2, 1), (3, 3), (4, 2), (5, 3), (6, 2)])
EXACT = Reference(incumbent=6, upper_bound=6)
LIMIT = 3.0


@pytest.fixture(scope="module")
def example():
    instance, _ = parse_instance(EXAMPLE)
    return instance, build_rank_table(instance)


def test_certify_accepts_stable_matchings(example):
    instance, ranks = example
    assert certify(instance, ranks, M0) is None
    assert certify(instance, ranks, M1) is None


def test_planted_false_optimal_is_flagged(example):
    instance, ranks = example
    assert classify(True, len(M0), certify(instance, ranks, M0), EXACT) == FALSE_OPTIMAL
    # the same matching without the claim is an honest timeout
    assert classify(False, len(M0), None, EXACT) == TIMEOUT


def test_false_optimal_below_capped_incumbent_is_flagged():
    capped = Reference(incumbent=6, upper_bound=8)
    assert classify(True, 5, None, capped) == FALSE_OPTIMAL
    assert classify(True, 7, None, capped) == PROVED


def test_unstable_matching_is_flagged(example):
    instance, ranks = example
    unstable = Matching.from_pairs([(1, 1), (2, 1), (3, 3), (6, 2)])  # (r5, h2) blocks
    problem = certify(instance, ranks, unstable)
    assert problem is not None
    assert classify(True, len(unstable), problem, EXACT) == INVALID


def test_invalid_matching_is_flagged(example):
    instance, ranks = example
    over_capacity = Matching.from_pairs([(1, 1), (2, 1), (3, 1)])
    assert certify(instance, ranks, over_capacity) is not None


def test_over_bound_objective_is_flagged(example):
    instance, ranks = example
    assert classify(True, len(M1), certify(instance, ranks, M1), Reference(5, 5)) == OVER_BOUND
    assert classify(False, len(M1), None, Reference(5, 5)) == OVER_BOUND


def test_failed_instance_counts_at_limit():
    for outcome in (TIMEOUT, FALSE_OPTIMAL, INVALID, OVER_BOUND, RAISED):
        assert charged_seconds(outcome, wall_s=0.2, solve_s=0.1, limit=LIMIT) == pytest.approx(3.1)
    # a timeout already spent L in the solver: counted as measured
    assert charged_seconds(TIMEOUT, wall_s=3.2, solve_s=3.01, limit=LIMIT) == 3.2
    assert charged_seconds(PROVED, wall_s=0.2, solve_s=0.1, limit=LIMIT) == 0.2


def test_pipeline_proves_the_example():
    result = pipeline.run_instance(EXAMPLE, "example", EXACT, LIMIT, Tracer(enabled=False))
    assert result.outcome == PROVED
    assert result.size == 6
    assert result.charged_s == result.wall_s < LIMIT


def test_pipeline_flags_planted_false_optimal(monkeypatch):
    def fake_solve(model, options):
        return SolveOutcome(SolveStatus.OPTIMAL, M0, len(M0), 1, 0.0, len(M0))

    monkeypatch.setattr(pipeline, "solve", fake_solve)
    result = pipeline.run_instance(EXAMPLE, "example", EXACT, LIMIT, Tracer(enabled=False))
    assert result.outcome == FALSE_OPTIMAL
    assert result.charged_s >= LIMIT


def test_pipeline_counts_a_raise_as_failed_instance(monkeypatch):
    def broken_solve(model, options):
        raise RuntimeError("boom")

    monkeypatch.setattr(pipeline, "solve", broken_solve)
    result = pipeline.run_instance(EXAMPLE, "example", EXACT, LIMIT, Tracer(enabled=False))
    assert result.outcome == RAISED
    assert result.size == 0
    assert result.charged_s >= LIMIT


def test_pipeline_flags_misreported_objective(monkeypatch):
    def lying_solve(model, options):
        return SolveOutcome(SolveStatus.OPTIMAL, M0, 6, 1, 0.0, 6)

    monkeypatch.setattr(pipeline, "solve", lying_solve)
    result = pipeline.run_instance(EXAMPLE, "example", EXACT, LIMIT, Tracer(enabled=False))
    assert result.outcome == INVALID


def test_traced_pipeline_records_layer_spans_and_counts():
    tracer = Tracer()
    pipeline.run_instance(EXAMPLE, "example", EXACT, LIMIT, tracer)
    names = {s.name for s in tracer.spans}
    assert names == {
        "pipeline", "instance_io.parse", "preprocess.offer", "preprocess.apply",
        "core.rank", "ip_model.build", "heuristics.warm", "solver.solve",
        "core.certify", "instance_io.serialize",
    }
    assert all(s.instance == "example" for s in tracer.spans)
    counts = tracer.count_totals()
    assert counts["ip_model.build.vars"] >= 1
    assert counts["solver.solve.nodes"] >= 1
    assert counts["solver.solve.false_optimal"] == 0
    assert counts["core.certify.failed"] == 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer", "i") as outer:
        with tracer.span("inner", "i", outer):
            pass
    outer_span, inner_span = tracer.spans
    self_times = tracer.self_times()
    assert self_times["inner"] == inner_span.duration
    assert self_times["outer"] == pytest.approx(outer_span.duration - inner_span.duration)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    pipeline.run_instance(EXAMPLE, "example", EXACT, LIMIT, tracer)
    assert tracer.spans == []


def test_fresh_import_reruns_the_program_and_keeps_the_loaded_copy():
    import run
    from maxhrt.generator import generate, sfas_like
    from maxhrt.instance_io import serialize_instance

    def program_modules():
        return {n: m for n, m in sys.modules.items() if n.startswith("maxhrt")}

    before = program_modules()
    fresh_generate, fresh_serialize = run.import_program()
    assert fresh_generate is not generate
    assert program_modules() == before
    config = sfas_like(30, 0.5, 1)
    assert fresh_serialize(fresh_generate(config)) == serialize_instance(generate(config))


def test_scale_is_nominal_over_mean_probe(monkeypatch):
    probes = iter([0.006, 0.010])
    monkeypatch.setattr(speed, "probe_s", lambda: next(probes))
    result, scale = speed.between_probes(lambda: "done")
    assert result == "done"
    assert scale == pytest.approx(speed.NOMINAL_PROBE_S / 0.008)
