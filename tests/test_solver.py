"""Branch-and-bound solver against the enumeration oracle and its contracts."""

import itertools
import os
import random
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxhrt import highs
from maxhrt.core import (
    Hospital,
    Instance,
    Matching,
    PreferenceList,
    build_rank_table,
    certify,
    validate_matching,
)
from maxhrt.generator import GeneratorConfig, generate, sfas_like
from maxhrt.heuristics import promotion_starts, warm_start
from maxhrt.ip_model import IpModel, build_model
from maxhrt.preprocess import ResidentTiesError, reduce_instance
from maxhrt.relaxation import max_placement, structural_fixings
from maxhrt.solver import (
    _UNFIXED,
    ESCALATE_AFTER_NODES,
    PROMOTION_TRIES,
    RACE_TRIES,
    SolveOptions,
    SolveStatus,
    SolverInternalError,
    _Search,
    solve,
)

from conftest import M1_PAIRS, column_of, encode, highs_optimum
from oracle import OracleLimit, max_stable_size
from reference_placement import reference_max_placement
from strategies import instances_strategy, relabel


def _model(instance):
    return build_model(instance, build_rank_table(instance))


def _pipeline_model(instance):
    """The model the pipeline solves: reduced unless residents have ties."""
    try:
        instance, _ = reduce_instance(instance)
    except ResidentTiesError:
        pass
    return _model(instance)


def upper_bound(model, fixing):
    """Best conceivable completion of a partial fixing, stability ignored.

    The reference for the search's relaxation, solved from an empty start.
    The fixing must not already violate the resident or capacity rows.
    """
    n1, n2 = model.instance.n1, model.instance.n2
    caps = [model.instance.capacity(j) for j in range(1, n2 + 1)]
    var_hosp = [j - 1 for _, j in model.pairs]
    state = [_UNFIXED] * model.num_variables
    res_match = [-1] * n1
    load = [0] * n2
    for col, value in fixing.items():
        if not 0 <= col < model.num_variables:
            raise ValueError(f"fixing names column {col}, which is not in the model")
        if value not in (0, 1):
            raise ValueError(f"fixing for column {col} must be 0 or 1")
        state[col] = value
        if value == 1:
            r, h = model.pairs[col]
            if res_match[r - 1] >= 0:
                raise ValueError(f"resident r{r} fixed to two hospitals")
            res_match[r - 1] = col
            load[h - 1] += 1
            if load[h - 1] > caps[h - 1]:
                raise ValueError(f"capacity of h{h} exceeded by fixing")
    return max_placement(caps, var_hosp, model.res_columns, state, res_match, [-1] * n1)


def small_instances(count, seed, max_residents=9):
    rng = random.Random(seed)
    for _ in range(count):
        n2 = rng.randint(2, 3)
        yield generate(
            GeneratorConfig(
                n1=rng.randint(2, max_residents),
                n2=n2,
                total_posts=rng.randint(1, max_residents),
                list_length=min(rng.randint(1, 3), n2),
                tie_density_residents=0.0,
                tie_density_hospitals=rng.choice([0.0, 0.4, 0.85, 1.0]),
                seed=rng.randrange(10**9),
            )
        )


def test_fig1_optimal_six(fig1):
    outcome = solve(_model(fig1))
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == 6
    assert outcome.proof_bound == 6
    assert certify(fig1, outcome.matching) is None
    assert validate_matching(fig1, outcome.matching) == []


def test_single_pair_forced(single_pair):
    outcome = solve(_model(single_pair))
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == 1
    assert outcome.matching == Matching({1: 1})


def test_matches_oracle_on_small_instances():
    limit = OracleLimit(max_pairs=40)
    for instance in small_instances(60, seed=5):
        outcome = solve(_model(instance))
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == max_stable_size(instance, limit)
        assert certify(instance, outcome.matching) is None


def test_objective_at_least_warm_start():
    for instance in small_instances(25, seed=8):
        warm = warm_start(instance)
        outcome = solve(_model(instance), SolveOptions(warm_start=warm))
        assert outcome.objective >= len(warm)
        assert outcome.objective <= instance.n1


def test_deterministic():
    model = _pipeline_model(generate(sfas_like(150, 0.5, 7)))
    first = solve(model, SolveOptions(time_limit=60.0))
    second = solve(model, SolveOptions(time_limit=60.0))
    assert first.nodes == second.nodes > 1
    assert first.objective == second.objective
    assert first.matching == second.matching


# The search alone (race off) pins its node count exactly, so a refactor
# that should explore the same tree shows it did. A change that moves a
# count updates it here and says why in CHANGES.md.
@pytest.mark.parametrize(
    "n1, tie_density, seed, objective, nodes",
    [(150, 0.5, 7, 149, 11), (300, 0.5, 5, 296, 117), (200, 0.5, 3, 198, 1881),
     (150, 0.5, 2, 146, 2875)],
)
def test_search_node_counts(n1, tie_density, seed, objective, nodes, monkeypatch):
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 10**9)
    instance = generate(sfas_like(n1, tie_density, seed))
    outcome = solve(_pipeline_model(instance), SolveOptions(time_limit=30.0))
    assert outcome.status is SolveStatus.OPTIMAL
    assert (outcome.objective, outcome.nodes) == (objective, nodes)
    assert certify(instance, outcome.matching) is None


# With the race off and the warm start and every promotion start pinned to
# one stable matching, only a search leaf can raise the incumbent: the search
# alone must reach the optimum, and with no false Optimal below it.
@pytest.mark.parametrize(
    "config, start, objective, nodes",
    [pytest.param(None, 5, 6, 1, id="fig1-from-M0"),
     pytest.param(GeneratorConfig(5, 4, 5, 2, 0.5, 0.5, seed=983515), 4, 5, 6, id="983515"),
     pytest.param(GeneratorConfig(8, 3, 8, 2, 0.0, 0.8, seed=352441), 7, 8, 9, id="352441"),
     pytest.param(GeneratorConfig(7, 4, 7, 2, 0.0, 0.8, seed=283285), 5, 6, 4, id="283285")],
)
def test_search_finds_what_the_starts_miss(config, start, objective, nodes, fig1, m0, monkeypatch):
    if config is None:
        instance, warm = fig1, m0
    else:
        instance = generate(config)
        warm = warm_start(instance)
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 10**9)
    monkeypatch.setattr("maxhrt.solver.promotion_starts", lambda instance: lambda seed: warm)
    outcome = solve(_model(instance), SolveOptions(warm_start=warm))
    assert len(warm) == start
    assert outcome.status is SolveStatus.OPTIMAL
    assert (outcome.objective, outcome.nodes) == (objective, nodes)
    assert objective == max_stable_size(instance, OracleLimit(max_pairs=40))
    assert certify(instance, outcome.matching) is None


def test_relabeled_objective_matches_oracle():
    # Relabeling reorders the reductions, the warm start's tie-breaking and
    # the search's branching; the optimum must not move.
    limit = OracleLimit(max_pairs=40)
    rng = random.Random(21)
    for instance in small_instances(15, seed=21):
        optimum = max_stable_size(instance, limit)
        for _ in range(3):
            relabeled, res_map, hosp_map = relabel(instance, rng)
            outcome = solve(_pipeline_model(relabeled))
            assert outcome.status is SolveStatus.OPTIMAL
            assert outcome.objective == optimum
            assert certify(relabeled, outcome.matching) is None


def test_timeout_returns_warm_start_or_better():
    instance = generate(
        GeneratorConfig(200, 14, 200, 5, 0.0, 0.85, seed=404)
    )
    model = _model(instance)
    warm = warm_start(instance)
    outcome = solve(model, SolveOptions(time_limit=1e-6, warm_start=warm))
    assert outcome.status is SolveStatus.FEASIBLE_TIMEOUT
    assert outcome.objective >= len(warm)
    assert outcome.proof_bound >= outcome.objective
    assert certify(instance, outcome.matching) is None


def test_rejects_unstable_warm_start(fig1):
    unstable = Matching({1: 2})  # (r1, h1) blocks
    with pytest.raises(ValueError, match="stable"):
        solve(_model(fig1), SolveOptions(warm_start=unstable))
    # (r2, h2) is the one-sided entry pruned from fig1, so it has no column
    outside = Matching({2: 2})
    with pytest.raises(ValueError, match=r"pair \(r2, h2\) is not acceptable"):
        solve(_model(fig1), SolveOptions(warm_start=outside))
    with pytest.raises(ValueError) as info:
        solve(_model(fig1), SolveOptions(warm_start=Matching({1: 99})))
    assert str(info.value) == (
        "warm start is not a valid matching for the instance: pair (r1, h99) out of range"
    )


def test_search_is_built_with_its_certified_warm_start(fig1):
    # the search holds a certified incumbent from its construction on: the
    # warm start it is given, or the default one
    model = _model(fig1)
    unstable = SolveOptions(warm_start=Matching({1: 2}))  # (r1, h1) blocks
    with pytest.raises(ValueError) as solved:
        solve(model, unstable)
    with pytest.raises(ValueError) as built:
        _Search(model, unstable)
    assert str(built.value) == str(solved.value)
    search = _Search(model, SolveOptions())
    assert search.incumbent == warm_start(model.instance)
    assert search.incumbent_size == len(search.incumbent)


def _recount(search):
    """The search's counters, rebuilt from its variable states."""
    res_match = [-1] * search.n1
    hosp_ones = [0] * search.n2
    res_nonzero = [len(cols) for cols in search.res_vars]
    for col, value in enumerate(search.state):
        i = search.var_res[col]
        if value == 1:
            res_match[i] = col
            hosp_ones[search.var_hosp[col]] += 1
        elif value == 0:
            res_nonzero[i] -= 1
    return res_match, hosp_ones, sum(hosp_ones), res_nonzero


def _counters(search):
    return search.res_match, search.hosp_ones, search.total_ones, search.res_nonzero


def test_failed_propagation_undoes_to_consistent_counters():
    # Fixing two pairs of one resident to 1 fails inside the fixing queue,
    # after a first fixing already matched some other resident; undoing the
    # failed step must leave counters that agree with the variable states.
    checked = 0
    for instance in small_instances(40, seed=33):
        search = _Search(_model(instance), SolveOptions())
        if not search._propagate([]):
            continue
        unfixed = [
            [col for col in cols if search.state[col] < 0] for cols in search.res_vars
        ]
        open_residents = [cols for cols in unfixed if len(cols) >= 2]
        if not open_residents:
            continue
        mark = len(search.trail)
        if not search._propagate([(open_residents[0][0], 1)]):
            search._undo_to(mark)
        assert _counters(search) == _recount(search)
        mark = len(search.trail)
        state = list(search.state)
        for cols in open_residents:
            a, b = cols[0], cols[1]
            if search.state[a] < 0 and search.state[b] < 0:
                assert not search._propagate([(a, 1), (b, 1)])
                search._undo_to(mark)
                assert search.state == state
                assert _counters(search) == _recount(search)
                checked += 1
    assert checked >= 10


def reference_scan(search):
    """The stability rows of every hospital read afresh, in the search's state.

    Returns (variables forced to 1, zero-completion feasible) or None on a
    row that no completion can satisfy. The forced variables are those
    `_Search._scan` returns for the hospitals it marks dirty; the flag is
    whether every row holds with each open pair at 0, which `core.certify`
    decides from the matching of the pairs at 1.
    """
    state = search.state
    forced = []
    zero_ok = True
    for j in range(search.n2):
        c = search.caps[j]
        vs = search.hosp_vars[j]
        nonzero = ones = 0
        idx = 0
        while idx < len(vs):
            block_rank = search.var_hrank[vs[idx]]
            start = idx
            while idx < len(vs) and search.var_hrank[vs[idx]] == block_rank:
                if state[vs[idx]] != 0:
                    nonzero += 1
                    ones += state[vs[idx]] == 1
                idx += 1
            if ones >= c:
                break
            for v in vs[start:idx]:
                i = search.var_res[v]
                rr = search.var_rrank[v]
                m = search.res_match[i]
                if m >= 0 and search.var_rrank[m] <= rr:
                    continue
                zero_ok = False
                if search._best_rank(i) > rr:
                    if nonzero < c:
                        return None
                    if nonzero == c:
                        forced += [w for w in vs[:idx] if state[w] < 0]
                elif nonzero < c:
                    open_cols = [
                        w for w in search.res_vars[i]
                        if search.var_rrank[w] <= rr and state[w] != 0
                    ]
                    if len(open_cols) == 1:
                        forced += open_cols
    return forced, zero_ok


def _check_relaxation(search, model):
    """The repaired relaxation equals a solve from an empty start and is a valid placement."""
    fixing = {col: value for col, value in enumerate(search.state) if value >= 0}
    bound = search._relaxation_bound()
    assert bound == upper_bound(model, fixing)
    # _select_var closes a node on this: with no unfixed pair on the fresh
    # placement, nothing beats the residents already matched
    if search._select_guided() < 0:
        assert bound == search.total_ones
    load = [0] * search.n2
    for i, col in enumerate(search.guide):
        if search.res_match[i] >= 0:
            assert col == search.res_match[i]
        elif col >= 0:
            assert search.var_res[col] == i and search.state[col] != 0
        if col >= 0:
            load[search.var_hosp[col]] += 1
    assert all(load[j] <= search.caps[j] for j in range(search.n2))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_incremental_node_evaluation_matches_full(data):
    # Random propagations (some fail) and undos; every scan, inside a
    # propagation or after a step, must force what the full scan forces, the
    # full scan's zero-completion flag must agree with `certify`, and the
    # relaxation with a solve of the same fixing from an empty start.
    model = _model(data.draw(instances_strategy(max_residents=8, max_hospitals=4)))
    search = _Search(model, SolveOptions())
    scan = search._scan

    def checked_scan():
        expected = reference_scan(search)
        zero_ok = expected is not None and expected[1]
        ones = Matching.from_pairs(
            pair for pair, value in zip(model.pairs, search.state) if value == 1
        )
        assert zero_ok == (certify(model.instance, ones) is None)
        result = scan()
        assert (None if result is None else set(result)) == (
            None if expected is None else set(expected[0])
        )
        return result

    search._scan = checked_scan
    assert search._propagate([])
    _check_relaxation(search, model)
    marks = []
    for _ in range(data.draw(st.integers(1, 15))):
        unfixed = [col for col, value in enumerate(search.state) if value < 0]
        if marks and (not unfixed or data.draw(st.booleans())):
            k = data.draw(st.integers(0, len(marks) - 1))
            search._undo_to(marks[k])
            del marks[k:]
        elif unfixed:
            cols = data.draw(st.lists(st.sampled_from(unfixed), min_size=1, max_size=2))
            mark = len(search.trail)
            if search._propagate([(col, data.draw(st.integers(0, 1))) for col in cols]):
                marks.append(mark)
            else:
                search._undo_to(mark)
        checked_scan()
        _check_relaxation(search, model)


def test_capacity_zero_pairs_have_no_column():
    # r1 lists h1, which has no post, then h2; r2 lists h2. With a column,
    # (r1, h1) would count as r1's best option and as a post that exists.
    instance = Instance(
        residents=(PreferenceList.strict((1, 2)), PreferenceList.strict((2,))),
        hospitals=(Hospital(0, PreferenceList.strict((1,))),
                   Hospital(1, PreferenceList.strict((1, 2)))),
    )
    model = _model(instance)
    assert model.pairs == ((1, 2), (2, 2))
    search = _Search(model, SolveOptions())
    assert search._propagate([])
    assert search._best_rank(0) == 2
    assert search.res_nonzero == [1, 1]


def test_model_without_columns_solves_to_zero():
    # every acceptable pair goes to a hospital with no post
    instance = Instance(
        residents=(PreferenceList.strict((1, 2)), PreferenceList.strict((1,))),
        hospitals=(Hospital(0, PreferenceList.strict((1, 2))),
                   Hospital(0, PreferenceList.strict((1,)))),
    )
    model = _model(instance)
    assert model.num_variables == 0
    outcome = solve(model)
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == outcome.proof_bound == 0
    assert outcome.matching == Matching({})
    assert outcome.nodes == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_structural_fixings_match_brute_force(data):
    # After random propagations, a pair is fixed to 0 exactly when forcing
    # it to 1 lowers the relaxation, and to 1 exactly when forcing it to 0
    # does: the pairs in no maximum placement and those in all of them.
    model = _model(data.draw(instances_strategy(max_residents=8, max_hospitals=4)))
    search = _Search(model, SolveOptions())
    assert search._propagate([])
    for _ in range(data.draw(st.integers(0, 6))):
        unfixed = [col for col, value in enumerate(search.state) if value < 0]
        if not unfixed:
            break
        cols = data.draw(st.lists(st.sampled_from(unfixed), min_size=1, max_size=2))
        mark = len(search.trail)
        if not search._propagate([(col, data.draw(st.integers(0, 1))) for col in cols]):
            search._undo_to(mark)
    fixing = {col: value for col, value in enumerate(search.state) if value >= 0}
    bound = search._relaxation_bound()
    fixings = search._structural_fixings()
    unfixed = [col for col, value in enumerate(search.state) if value < 0]
    assert len(fixings) == len(set(fixings))
    assert {col for col, value in fixings if value == 0} == {
        col for col in unfixed if upper_bound(model, {**fixing, col: 1}) < bound
    }
    assert {col for col, value in fixings if value == 1} == {
        col for col in unfixed if upper_bound(model, {**fixing, col: 0}) < bound
    }


def test_structural_fixings_keep_alternating_cycles():
    # r1 and r2 each tie h1 with h2, both with one post: every pair is in a
    # maximum placement, though off the placement no path reaches an
    # unplaced resident or a spare post; only the cycle through both keeps them.
    tied = PreferenceList(((1, 2),))
    instance = Instance(residents=(tied, tied), hospitals=(Hospital(1, tied), Hospital(1, tied)))
    search = _Search(_model(instance), SolveOptions())
    assert search._propagate([])
    assert search._relaxation_bound() == 2
    assert search._structural_fixings() == []


def test_structural_fixings_reject_a_placement_that_is_not_maximum():
    # one resident with one open column, left unplaced: an augmenting path
    message = "placement is not maximum: resident 0 has an augmenting path"
    with pytest.raises(ValueError, match=message):
        structural_fixings([1], [0], [0], [[0]], [[0]], [-1], [-1], [-1])


def test_select_var_refreshes_a_spent_guide():
    # Once every guide column of an unmatched resident is fixed to 0, the
    # guide offers nothing, but a fresh placement still places residents:
    # _select_var must repair the guide and branch on it, not close the node.
    search = _Search(_model(generate(GeneratorConfig(8, 2, 6, 2, 0.0, 0.5, seed=945215))),
                     SolveOptions())
    assert search._propagate([])
    search._relaxation_bound()
    unmatched = [i for i in range(search.n1) if search.res_match[i] < 0]
    assert search._propagate([(search.guide[i], 0) for i in unmatched if search.guide[i] >= 0])
    assert search._select_guided() == -1
    col = search._select_var()
    assert col >= 0 and search.state[col] == _UNFIXED
    assert search.res_match[search.var_res[col]] < 0


def _sfas(n1, tie_density, seed):
    return pytest.param(sfas_like(n1, tie_density, seed), id=f"{n1}-{tie_density}-{seed}")


# SFAS-like instances beyond the oracle's reach. (100, 0.85, 3), (100, 0.85, 7)
# and (150, 0.5, 2) are ones where the search once claimed Optimal at 99, 98
# and 145 against optima of 100, 99 and 146. The race is switched off, so
# every claim is the search's own. Within the 1 s limit, (150, 0.5, 2) is
# proved only after a search of thousands of nodes, (150, 0.5, 7) and
# (300, 0.5, 5) after the root's fixings from the relaxation's structure and
# a short search, and (100, 0.85, 7) times out; the others are proved at the
# root node. The two-sided instance has ties on both sides, so it is solved
# unreduced.
@pytest.mark.parametrize(
    "config",
    [_sfas(40, 0.85, 0), _sfas(70, 0.5, 0), _sfas(100, 0.5, 3), _sfas(100, 0.85, 3),
     _sfas(100, 0.85, 7), _sfas(150, 0.5, 2), _sfas(150, 0.5, 7), _sfas(150, 0.85, 4),
     _sfas(300, 0.5, 5),
     pytest.param(GeneratorConfig(150, 10, 150, 5, 0.3, 0.5, seed=1), id="two-sided-150-1")],
)
@pytest.mark.highs
def test_never_claims_beyond_highs(config, monkeypatch):
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 10**9)
    instance = generate(config)
    optimum = highs_optimum(_model(instance))
    outcome = solve(_pipeline_model(instance), SolveOptions(time_limit=1.0))
    assert outcome.objective <= optimum <= outcome.proof_bound
    if outcome.status is SolveStatus.OPTIMAL:
        assert outcome.objective == optimum
    assert certify(instance, outcome.matching) is None


# Instances whose optimum equals the root relaxation bound, where a plain
# Gale-Shapley warm start falls short and the search alone once timed out.
# The root's promotion starts find the optimum before branching (on
# (200, 0.85, 8) at seed 12; on the two-sided instance, whose warm start
# reaches 196, at seed 1), so the proof needs one node; the time limit is
# far above what that takes. On (300, 0.5, 7) all 300 residents have a
# column but the root bound is 297, so a root that took the count for its
# bound would search instead.
@pytest.mark.parametrize(
    "config, optimum",
    [pytest.param(sfas_like(300, 0.85, 8), 300, id="sfas-300-0.85-8"),
     pytest.param(sfas_like(200, 0.85, 8), 200, id="sfas-200-0.85-8"),
     pytest.param(GeneratorConfig(200, 14, 200, 5, 0.3, 0.5, seed=6), 200,
                  id="two-sided-200-6"),
     pytest.param(sfas_like(300, 0.5, 7), 297, id="sfas-300-0.5-7")],
)
def test_primal_phase_proves_at_root(config, optimum):
    instance = generate(config)
    model = _pipeline_model(instance)
    assert len(warm_start(model.instance)) < optimum
    outcome = solve(model, SolveOptions(time_limit=60.0))
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.nodes == 1
    assert outcome.objective == outcome.proof_bound == optimum
    assert certify(instance, outcome.matching) is None


# A warm start that matches every resident with a column is optimal by
# counting: the root returns it at once, without propagating, bounding,
# trying a seed or building the branching order. The first model is reduced
# (count 294), the second unreduced, since its residents have ties (count 150).
@pytest.mark.parametrize(
    "config",
    [pytest.param(sfas_like(300, 0.0, 0), id="sfas-300-0.0-0"),
     pytest.param(GeneratorConfig(150, 10, 150, 5, 0.3, 0.5, seed=2), id="two-sided-150-2")],
)
def test_warm_start_matching_every_resident_with_a_column_returns_at_once(
    config, monkeypatch
):
    def refuse(*args):
        raise AssertionError("the count proves the warm start optimal")

    for name in ("_propagate", "_relaxation_bound", "_try_seeds"):
        monkeypatch.setattr(_Search, name, refuse)
    monkeypatch.setattr(_Search, "priority", property(refuse), raising=False)
    instance = generate(config)
    model = _pipeline_model(instance)
    count = sum(1 for columns in model.res_columns if columns)
    warm = warm_start(model.instance)
    assert len(warm) == count
    outcome = solve(model)
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.nodes == 1
    assert outcome.objective == outcome.proof_bound == count
    assert outcome.matching == warm
    assert certify(instance, outcome.matching) is None


# The root is the same whatever the labeling: these instances, each relabeled
# ten ways, once took from 23 to over 17 000 nodes or timed out, by labeling,
# because a root without resident ties tried one promotion start. The race is off, so
# every proof is the root's or the search's.
@pytest.mark.parametrize(
    "config, max_nodes",
    [pytest.param(sfas_like(150, 0.5, 7), 100, id="sfas-150-0.5-7"),
     pytest.param(sfas_like(200, 0.85, 8), 1, id="sfas-200-0.85-8"),
     pytest.param(sfas_like(200, 0.85, 9), 1, id="sfas-200-0.85-9")],
)
def test_relabeled_root_proves_in_few_nodes(config, max_nodes, monkeypatch):
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 10**9)
    instance = generate(config)
    for k in range(1, 11):
        relabeled, _, _ = relabel(instance, random.Random(k))
        outcome = solve(_pipeline_model(relabeled), SolveOptions(time_limit=5.0))
        assert outcome.status is SolveStatus.OPTIMAL, k
        assert outcome.nodes <= max_nodes, k


def test_tight_root_fixings_prove_in_few_nodes():
    # The warm start gives 149 against a root bound of 150 (promotion seed 0
    # gives 148), so this also guards the warm start's output; without
    # fixing pairs from the relaxation's structure, the proof took 6 047 nodes.
    instance = generate(sfas_like(150, 0.5, 7))
    outcome = solve(_pipeline_model(instance), SolveOptions(time_limit=60.0))
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == outcome.proof_bound == 149
    assert outcome.nodes <= 50
    assert certify(instance, outcome.matching) is None


# Roots the count leaves open but the placement grown from the warm start
# closes: the seeds meet it, so the root never propagates. (300, 0.5, 7)
# reaches 297 at seed 0 with all 300 residents holding a column, so a seed
# target above the bound would spend every try; the two-sided instance needs
# seeds 0 and 1; on (100, 0.5, 7) the warm start already meets the bound.
@pytest.mark.parametrize(
    "config, optimum, seeds",
    [pytest.param(sfas_like(300, 0.5, 7), 297, [0], id="sfas-300-0.5-7"),
     pytest.param(GeneratorConfig(200, 14, 200, 5, 0.3, 0.5, seed=3), 200, [0, 1],
                  id="two-sided-200-3"),
     pytest.param(sfas_like(100, 0.5, 7), 97, [], id="sfas-100-0.5-7")],
)
def test_seeds_close_the_root_before_propagation(config, optimum, seeds, monkeypatch):
    def refuse(*args):
        raise AssertionError("the seeds prove the root before propagation")

    tried = []

    def counted(instance):
        start = promotion_starts(instance)

        def promote(seed):
            tried.append(seed)
            return start(seed)

        return promote

    monkeypatch.setattr(_Search, "_propagate", refuse)
    monkeypatch.setattr("maxhrt.solver.promotion_starts", counted)
    instance = generate(config)
    outcome = solve(_pipeline_model(instance), SolveOptions(time_limit=60.0))
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.nodes == 1
    assert outcome.objective == outcome.proof_bound == optimum
    assert tried == seeds
    assert certify(instance, outcome.matching) is None


# Small instances where the root's promotion starts end one below the root
# bound and the root's fixings alone prove the incumbent (7 and 15 nodes
# without them); the second has ties on the residents' side.
@pytest.mark.parametrize(
    "config",
    [GeneratorConfig(5, 3, 4, 2, 0.0, 0.5, seed=588093),
     GeneratorConfig(9, 4, 9, 2, 0.5, 0.0, seed=545182)],
)
def test_tight_root_fixings_prove_at_root(config):
    instance = generate(config)
    outcome = solve(_model(instance))
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.nodes == 1
    assert outcome.objective == outcome.proof_bound
    assert outcome.objective == max_stable_size(instance, OracleLimit(max_pairs=40))


def test_rejects_bad_time_limit():
    # NaN compares false with everything, so its deadline would never pass
    for limit in (0, float("nan")):
        with pytest.raises(ValueError):
            SolveOptions(time_limit=limit)


def test_upper_bound_fig1(fig1):
    model = _model(fig1)
    assert upper_bound(model, {}) == 6
    # cutting both of r1's pairs caps the bound at 5
    col = column_of(model)
    assert upper_bound(model, {col[1, 1]: 0, col[1, 2]: 0}) <= 5
    indicator = dict(enumerate(encode(model, Matching.from_pairs(M1_PAIRS))))
    assert upper_bound(model, indicator) == 6


def test_upper_bound_admissible_on_smalls():
    limit = OracleLimit(max_pairs=40)
    for instance in small_instances(30, seed=12):
        model = _model(instance)
        assert upper_bound(model, {}) >= max_stable_size(instance, limit)


def test_upper_bound_rejects_bad_fixing(fig1):
    model = _model(fig1)
    col = column_of(model)
    with pytest.raises(ValueError, match="two hospitals"):
        upper_bound(model, {col[1, 1]: 1, col[1, 2]: 1})
    with pytest.raises(ValueError, match="not in the model"):
        upper_bound(model, {-1: 0})


@pytest.mark.highs
def test_solve_never_reads_rows(fig1, monkeypatch):
    # The search works from the pair index alone, and so does the HiGHS child,
    # which builds its tie-count rows from the index; the rows are for export.
    # fig1 is proved at the root. (150, 0.5, 2) starts the child, and the
    # search mostly finishes first; on (100, 0.85, 7) the child's optimum
    # proves the incumbent.
    cases = [(_model(fig1), 6), (_pipeline_model(generate(sfas_like(150, 0.5, 2))), 146),
             (_bound_limited_model(), 99)]
    optima = []
    poll = highs.poll

    def recording_poll(child):
        optimum = poll(child)
        if optimum is not None:
            optima.append(optimum)
        return optimum

    def no_rows(model):
        raise AssertionError("solve read the model's rows")

    monkeypatch.setattr(IpModel, "constraints", property(no_rows))
    monkeypatch.setattr(highs, "poll", recording_poll)
    for model, optimum in cases:
        outcome = solve(model, SolveOptions(time_limit=60.0))
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == optimum
    assert optima


def _failed_child(*args):
    """A HiGHS child that has ended without an optimum, as without scipy."""
    return highs.Child(-1, -1)


# The root tries seeds 0 to PROMOTION_TRIES - 1 on every instance, with
# resident ties (the two-sided one) or without. Once the race starts, the
# parent goes on with the next seeds up to RACE_TRIES in all; a child without
# an optimum stops nothing. Here no try ever improves the incumbent, so none
# stops the others, and the race starts at the first search node.
@pytest.mark.parametrize(
    "config",
    [pytest.param(sfas_like(150, 0.5, 7), id="sfas-150-0.5-7"),
     pytest.param(GeneratorConfig(150, 10, 150, 5, 0.3, 0.5, seed=0), id="two-sided-150-0")],
)
def test_primal_phase_tries(config, monkeypatch):
    calls = []
    at_fork = []

    def counted(instance):
        def tried(seed):
            calls.append(seed)
            return Matching({})

        return tried

    def start(model, deadline):
        at_fork.append(list(calls))
        return _failed_child()

    monkeypatch.setattr("maxhrt.solver.promotion_starts", counted)
    monkeypatch.setattr(highs, "start", start)
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 1)
    solve(_pipeline_model(generate(config)), SolveOptions(time_limit=0.5))
    assert at_fork == [list(range(PROMOTION_TRIES))]
    assert calls == list(range(RACE_TRIES))


def _optimal_answer(model, matching):
    """A child's optimum: the columns of `matching`."""
    return tuple(c for c, x in enumerate(encode(model, matching)) if x)


def test_a_deciding_child_stops_the_tries(monkeypatch):
    model = _pipeline_model(generate(sfas_like(150, 0.5, 7)))
    warm = warm_start(model.instance)
    answer = _optimal_answer(model, warm)
    search = _Search(model, SolveOptions(time_limit=60.0))
    monkeypatch.setattr(highs, "start", lambda *args: highs.Child(-1, -1, answer))
    assert search._race(search.n1 + 1)
    assert search.next_seed == 0
    assert search.incumbent == warm


# Instances whose optimum is the root bound, where the warm start falls short
# and the root's tries reach it: at seeds 10 and 14, since a resident applies
# first to a hospital with a free post in its tie. Without that rule they
# waited for the fork's seeds 73 and 59, after 1 000 search nodes. The race
# is off, so the root alone proves them.
TRIES_AT_THE_ROOT = [
    pytest.param(GeneratorConfig(200, 14, 200, 5, 0.3, 0.5, seed=4), 200, 10,
                 id="two-sided-200-4"),
    pytest.param(GeneratorConfig(150, 10, 150, 5, 0.3, 0.5, seed=0), 150, 14,
                 id="two-sided-150-0"),
]

# Instances whose optimum is the root bound, where the search alone and
# every root try fall short. The tries made while the race's child starts
# reach it, at seeds 45 and 64. The child here has no optimum, so the tries
# alone prove them.
TRIES_AT_THE_FORK = [
    pytest.param(GeneratorConfig(200, 14, 200, 5, 0.3, 0.5, seed=30), 200, 45,
                 id="two-sided-200-30"),
    pytest.param(GeneratorConfig(200, 14, 200, 5, 0.3, 0.5, seed=86), 200, 64,
                 id="two-sided-200-86"),
]


@pytest.mark.parametrize("config, optimum, seed", TRIES_AT_THE_ROOT)
def test_tries_at_the_root_prove_at_the_root_bound(config, optimum, seed, monkeypatch):
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 10**9)
    instance = generate(config)
    model = _pipeline_model(instance)
    assert len(warm_start(model.instance)) < optimum
    outcome = solve(model, SolveOptions(time_limit=3.5))
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == outcome.proof_bound == optimum
    assert outcome.nodes == 1
    assert certify(instance, outcome.matching) is None


@pytest.mark.parametrize("config, optimum, seed", TRIES_AT_THE_FORK)
def test_tries_at_the_fork_prove_at_the_root_bound(config, optimum, seed, monkeypatch):
    monkeypatch.setattr(highs, "start", _failed_child)
    instance = generate(config)
    outcome = solve(_pipeline_model(instance), SolveOptions(time_limit=3.5))
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == outcome.proof_bound == optimum
    assert outcome.nodes == ESCALATE_AFTER_NODES
    assert certify(instance, outcome.matching) is None


@pytest.mark.parametrize("config, optimum, seed", [*TRIES_AT_THE_ROOT, *TRIES_AT_THE_FORK])
def test_first_seed_at_the_root_bound(config, optimum, seed):
    start = promotion_starts(_pipeline_model(generate(config)).instance)
    sizes = [len(start(s)) for s in range(seed + 1)]
    assert sizes[seed] == optimum > max(sizes[:seed])


# Two-sided instances off the benchmark's pool: n1 in {100, 150, 200, 300},
# resident tie densities 0.3 and 0.6, seeds 20-31. The warm start and the
# root's seeds 0 to PROMOTION_TRIES - 1 reach the unreduced root bound on 92
# of the 96; with ties broken by the seeded shuffle alone, on 83.
def test_root_starts_reach_the_bound_off_the_pool():
    reached = 0
    for n1 in (100, 150, 200, 300):
        for density in (0.3, 0.6):
            for seed in range(20, 32):
                instance = generate(GeneratorConfig(n1, int(0.07 * n1), n1, 5, density, 0.5, seed))
                bound = upper_bound(_model(instance), {})
                start = promotion_starts(instance)
                sizes = itertools.chain([len(warm_start(instance))],
                                        (len(start(s)) for s in range(PROMOTION_TRIES)))
                reached += any(size >= bound for size in sizes)
    assert reached >= 92


def test_long_augmenting_path_chain():
    # r_k lists h_k then h_(k+1) and the last resident only h_1, every post
    # single: placing the last resident shifts every other one along the
    # chain, an augmenting path through all 1 500 hospitals.
    n = 1500
    residents = [PreferenceList.strict((k, k + 1)) for k in range(1, n)]
    residents.append(PreferenceList.strict((1,)))
    hospitals = [Hospital(1, PreferenceList.strict((1, n)))]
    hospitals += [Hospital(1, PreferenceList.strict((k, k - 1))) for k in range(2, n)]
    hospitals.append(Hospital(1, PreferenceList.strict((n - 1,))))
    instance = Instance(residents=tuple(residents), hospitals=tuple(hospitals))
    outcome = solve(_model(instance), SolveOptions(time_limit=60.0))
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == outcome.proof_bound == n - 1
    assert outcome.nodes == 1


def _placement_case(rng):
    """A random small relaxation: ties on both sides, some columns fixed to
    0, some residents pinned within capacity, and a random start."""
    n1, n2 = rng.randint(2, 12), rng.randint(2, 6)
    instance = generate(
        GeneratorConfig(
            n1=n1,
            n2=n2,
            total_posts=rng.randint(1, n1),
            list_length=rng.randint(1, n2),
            tie_density_residents=rng.choice([0.0, 0.4, 1.0]),
            tie_density_hospitals=rng.choice([0.0, 0.4, 1.0]),
            seed=rng.randrange(10**9),
        )
    )
    model = _model(instance)
    caps = [instance.capacity(j) for j in range(1, n2 + 1)]
    var_hosp = [j - 1 for _, j in model.pairs]
    res_vars = model.res_columns
    state = [0 if rng.random() < 0.15 else _UNFIXED for _ in model.pairs]
    res_match = [-1] * n1
    load = [0] * n2
    for i in rng.sample(range(n1), n1):
        free = [c for c in res_vars[i] if state[c] != 0 and load[var_hosp[c]] < caps[var_hosp[c]]]
        if free and rng.random() < 0.2:
            col = rng.choice(free)
            res_match[i] = col
            load[var_hosp[col]] += 1
            for c in res_vars[i]:
                state[c] = 1 if c == col else 0
    place = [rng.choice(cols) if cols and rng.random() < 0.5 else -1 for cols in res_vars]
    return caps, var_hosp, res_vars, state, res_match, place


def test_max_placement_matches_the_reference():
    # The shortcuts (holders with one column are not pushed, and hospitals a
    # failed search visited stay dead) must leave the placement as it was.
    rng = random.Random(1308)
    for case in range(3000):
        caps, var_hosp, res_vars, state, res_match, place = _placement_case(rng)
        expected = list(place)
        size = reference_max_placement(caps, var_hosp, res_vars, state, res_match, expected)
        assert max_placement(caps, var_hosp, res_vars, state, res_match, place) == size, case
        assert place == expected, case


# -- the race against HiGHS in a child process --------------------------------


def _bound_limited_model():
    """sfas_like(100, 0.85, 7)'s pipeline model: optimum 99 under a root bound of 100.

    The search alone times out here at 99.
    """
    return _pipeline_model(generate(sfas_like(100, 0.85, 7)))


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _answer(child, seconds=30.0):
    """The child's optimum, waiting up to `seconds` for the child to finish."""
    end = time.monotonic() + seconds
    while highs.poll(child) is None and child.fd >= 0 and time.monotonic() < end:
        time.sleep(0.01)
    return child.optimum


@pytest.mark.highs
def test_highs_child_answers_optimal():
    # The child builds its model from the pair index, not from the rows that
    # highs_optimum reads. 197 is the optimum perfbench/reference.json stores.
    for config, optimum in ((sfas_like(100, 0.85, 7), 99), (sfas_like(200, 0.85, 7), 197)):
        model = _pipeline_model(generate(config))
        child = highs.start(model, time.monotonic() + 30.0)
        try:
            columns = _answer(child)
        finally:
            highs.close(child)
        _assert_no_child()
        assert columns is not None
        matching = Matching.from_pairs(model.pairs[c] for c in columns)
        assert len(matching) == optimum
        assert certify(model.instance, matching) is None


def test_start_without_fork_races_nothing(single_pair, monkeypatch):
    monkeypatch.delattr(os, "fork")
    child = highs.start(_model(single_pair), time.monotonic() + 30.0)
    assert child == highs.Child(-1, -1)
    assert highs.poll(child) is None
    highs.close(child)
    assert child == highs.Child(-1, -1)


def test_start_closes_the_pipe_when_the_fork_fails(single_pair, monkeypatch):
    opened = []
    pipe = os.pipe

    def recording_pipe():
        fds = pipe()
        opened.extend(fds)
        return fds

    def failing_fork():
        raise OSError("no processes left")

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    child = highs.start(_model(single_pair), time.monotonic() + 30.0)
    assert child == highs.Child(-1, -1)
    assert len(opened) == 2
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_poll_reads_a_pipe_above_fd_setsize():
    # In a process with many files open the race's pipe gets a high fd, and
    # select.select rejects any fd of FD_SETSIZE (1 024) or more.
    resource = pytest.importorskip("resource")
    fd = 1500
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != resource.RLIM_INFINITY and soft <= fd:
        pytest.skip(f"the soft limit on open files is {soft}")
    with pytest.raises(OSError):
        os.fstat(fd)  # free, so dup2 closes no file of this process
    for answer, optimum in ((b"Optimal 3 5", (3, 5)), (b"", None)):
        read_fd, write_fd = os.pipe()
        child = highs.Child(-1, -1)
        try:
            child.fd = os.dup2(read_fd, fd)
            assert highs.poll(child) is None  # nothing written yet
            os.write(write_fd, answer)
            os.close(write_fd)
            write_fd = -1
            assert highs.poll(child) == optimum
            assert child.fd == -1
            with pytest.raises(OSError):
                os.fstat(fd)  # poll read the pipe to its end and closed it
        finally:
            highs.close(child)
            for end in (read_fd, write_fd):
                if end >= 0:
                    os.close(end)


@pytest.mark.highs
def test_race_proves_what_the_search_alone_cannot():
    instance = generate(sfas_like(100, 0.85, 7))
    outcome = solve(_pipeline_model(instance), SolveOptions(time_limit=3.5))
    _assert_no_child()
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == outcome.proof_bound == 99
    assert outcome.nodes >= ESCALATE_AFTER_NODES
    assert certify(instance, outcome.matching) is None


def test_race_rejects_an_unstable_highs_optimum(monkeypatch):
    # A maximum placement of the relaxation matches all 100 residents, one
    # more than any stable matching: the child's "optimum" must not pass.
    model = _bound_limited_model()
    n1 = model.instance.n1
    caps = [model.instance.capacity(j) for j in range(1, model.instance.n2 + 1)]
    var_hosp = [j - 1 for _, j in model.pairs]
    placement = [-1] * n1
    state = [_UNFIXED] * model.num_variables
    assert max_placement(caps, var_hosp, model.res_columns, state, [-1] * n1, placement) == 100
    answer = tuple(col for col in placement if col >= 0)
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 1)
    monkeypatch.setattr(highs, "start", lambda *args: highs.Child(-1, -1, answer))
    with pytest.raises(SolverInternalError, match="HiGHS optimum is not weakly stable"):
        solve(model, SolveOptions(time_limit=60.0))


def _answer_once_improved(monkeypatch, answer_for):
    """Make the race's child answer `answer_for(matching)` once a promotion
    start at the fork has certified a matching above the root's incumbent.

    Returns the certified matchings, in order, and how many of them were
    certified before the fork.
    """
    adopted = []
    adopt = _Search._adopt

    def recording(search, matching, source):
        adopt(search, matching, source)
        adopted.append(matching)

    at_fork = []

    def start(model, deadline):
        at_fork.append(len(adopted))
        return highs.Child(-1, -1)

    def poll(child):
        # every matching the search certifies before HiGHS's beats the last
        if child.optimum is None and len(adopted) > at_fork[0]:
            child.optimum = answer_for(adopted[-1])
        return child.optimum

    monkeypatch.setattr(_Search, "_adopt", recording)
    monkeypatch.setattr(highs, "start", start)
    monkeypatch.setattr(highs, "poll", poll)
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 1)
    return adopted, at_fork


def _two_sided_300_31():
    """Two-sided n1 = 300 seed 31: the warm start reaches 295, the root's
    tries end at 297 under a root bound of 300, and the tries at the fork
    raise it to 298."""
    return _model(generate(GeneratorConfig(300, 21, 300, 5, 0.3, 0.5, seed=31)))


def test_race_accepts_a_highs_optimum_equal_to_the_improved_incumbent(monkeypatch):
    model = _two_sided_300_31()
    adopted, at_fork = _answer_once_improved(monkeypatch, lambda m: _optimal_answer(model, m))
    outcome = solve(model, SolveOptions(time_limit=60.0))
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.matching == adopted[-1] == adopted[-2]  # the try's, then HiGHS's
    assert len(adopted) == at_fork[0] + 2
    assert outcome.objective == outcome.proof_bound == len(adopted[-1])


def test_race_rejects_a_highs_optimum_below_the_incumbent(monkeypatch):
    # the child's matching is certified, but smaller than one the search holds
    model = _two_sided_300_31()
    warm = warm_start(model.instance)
    _answer_once_improved(monkeypatch, lambda matching: _optimal_answer(model, warm))
    with pytest.raises(SolverInternalError, match="HiGHS optimum 295 is below the incumbent"):
        solve(model, SolveOptions(time_limit=60.0))


def test_race_without_scipy_runs_as_the_search_alone(monkeypatch):
    model = _bound_limited_model()
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 10**9)
    alone = solve(model, SolveOptions(time_limit=1.0))
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 1)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)  # the child's import fails
    child = highs.start(model, time.monotonic() + 30.0)
    try:
        assert _answer(child) is None
        assert child.fd == -1  # the child has finished
    finally:
        highs.close(child)
    raced = solve(model, SolveOptions(time_limit=1.0))
    _assert_no_child()
    assert alone.status is raced.status is SolveStatus.FEASIBLE_TIMEOUT
    assert alone.objective == raced.objective == 99
    assert alone.proof_bound == raced.proof_bound == 100


def test_no_child_outlives_solve(monkeypatch):
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 1)
    # the search wins: 117 nodes, far sooner than the child answers
    outcome = solve(_pipeline_model(generate(sfas_like(300, 0.5, 5))), SolveOptions(60.0))
    assert outcome.status is SolveStatus.OPTIMAL
    _assert_no_child()
    # the deadline strikes mid-race: HiGHS is still open after 30 s here, and
    # the promotion starts reach 298 under a root bound of 300
    slow = _pipeline_model(generate(sfas_like(300, 0.85, 7)))
    outcome = solve(slow, SolveOptions(time_limit=1.0))
    assert outcome.status is SolveStatus.FEASIBLE_TIMEOUT
    _assert_no_child()

    # an exception ends the search while the child is running
    def failing_poll(child):
        raise RuntimeError("poll failed")

    monkeypatch.setattr(highs, "poll", failing_poll)
    with pytest.raises(RuntimeError, match="poll failed"):
        solve(slow, SolveOptions(time_limit=60.0))
    _assert_no_child()


@pytest.mark.highs
def test_race_in_a_host_that_reaps_children(monkeypatch):
    # With SIGCHLD ignored the kernel reaps the child as it exits, so close()
    # finds no child to wait for, whether it answered or was still working.
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 1)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        answered = solve(_bound_limited_model(), SolveOptions(time_limit=30.0))
        slow = _pipeline_model(generate(sfas_like(300, 0.85, 7)))
        cut = solve(slow, SolveOptions(time_limit=1.0))
    finally:
        signal.signal(signal.SIGCHLD, previous)
    _assert_no_child()
    assert answered.status is SolveStatus.OPTIMAL
    assert answered.objective == answered.proof_bound == 99
    assert cut.status is SolveStatus.FEASIBLE_TIMEOUT


def _fresh_interpreter(code, *flags):
    """Run `code` in a new interpreter that imports maxhrt from this checkout."""
    src = os.path.dirname(os.path.dirname(highs.__file__))
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )


def test_race_forks_from_a_process_without_threads():
    # The solver's process forks its HiGHS child; from Python 3.12 a fork in
    # a process with threads warns (DeprecationWarning), since the child can
    # hang on a lock another thread held. Here no such warning may be shown.
    code = (
        "from maxhrt import solver\n"
        "from maxhrt.core import build_rank_table\n"
        "from maxhrt.generator import generate, sfas_like\n"
        "from maxhrt.ip_model import build_model\n"
        "from maxhrt.preprocess import reduce_instance\n"
        "solver.ESCALATE_AFTER_NODES = 1\n"
        "instance, _ = reduce_instance(generate(sfas_like(300, 0.5, 5)))\n"
        "model = build_model(instance, build_rank_table(instance))\n"
        "print(solver.solve(model, solver.SolveOptions(60.0)).status.name)\n"
    )
    result = _fresh_interpreter(code, "-W", "always::DeprecationWarning")
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "OPTIMAL\n")


@pytest.mark.highs
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's /proc")
def test_test_process_forks_without_threads():
    # Tests import scipy.optimize, and so numpy; conftest limits OpenBLAS to
    # one thread first, so the race tests fork a process that has no other
    # threads.
    import scipy.optimize  # noqa: F401
    with open("/proc/self/status") as status:
        threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
    assert threads == "1"


# Instances beyond the oracle's reach whose root leaves a gap, so that with
# the threshold at one node the race starts right after the root. The search
# alone proves (120, 0.5, 8) in 46 nodes and (150, 0.5, 2) in about 4 300,
# and times out at 2 s on the others; the two-sided instance is solved
# unreduced.
@pytest.mark.parametrize(
    "config",
    [_sfas(100, 0.85, 7), _sfas(120, 0.5, 0), _sfas(120, 0.5, 8), _sfas(120, 0.85, 26),
     _sfas(150, 0.5, 2),
     pytest.param(GeneratorConfig(100, 7, 100, 5, 0.3, 0.5, seed=7), id="two-sided-100-7")],
)
@pytest.mark.highs
def test_race_from_the_first_node_agrees_with_highs(config, monkeypatch):
    monkeypatch.setattr("maxhrt.solver.ESCALATE_AFTER_NODES", 1)
    instance = generate(config)
    optimum = highs_optimum(_model(instance))
    outcome = solve(_pipeline_model(instance), SolveOptions(time_limit=30.0))
    _assert_no_child()
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == outcome.proof_bound == optimum
    assert certify(instance, outcome.matching) is None


def test_solver_import_loads_no_heavy_modules():
    # HiGHS runs in a forked child; numpy and scipy in the solver's process
    # would cost about 60 MB, and a process pool's modules more start-up.
    code = (
        "import sys, maxhrt.solver; "
        "print(*[m for m in ('numpy', 'scipy', 'multiprocessing', 'subprocess') "
        "if m in sys.modules])"
    )
    result = _fresh_interpreter(code)
    assert (result.returncode, result.stdout.split()) == (0, [])
