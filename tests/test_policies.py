"""Policy catalog: worked examples, admissibility, and JSON round trips."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdp.errors import Inadmissible, MissingDecision, ParseError, WrongGraphClass
from matchdp.graphs import (
    ArrivalDistribution,
    CostVector,
    MatchingGraph,
    project_state,
)
from matchdp.policies import (
    AcyclicHeuristic,
    FullMatch,
    MatchLongest,
    MaxWeight,
    PriorityExtreme,
    Tabular,
    ThresholdCMO,
    ThresholdN,
    ThresholdW,
    ThresholdWWorkload,
    policy_from_spec,
    read_decisions,
)
from matchdp.solver import TruncatedStateSpace, evaluate_policy, extract_policy
from matchdp.states import is_admissible, node_usage
from matchdp.structure import verify_policy_shape

from conftest import (
    OTHER_COSTS,
    WRONG_LENGTHS,
    Fractional,
    ZeroOfLength,
    make_cmo33,
    make_complete22,
    make_n_graph,
    make_nn_graph,
    make_path23,
    make_w_graph,
    n_inputs,
    unit_costs,
)
from oracles import (
    ReferenceTabular,
    reference_decide,
    reference_read_decisions,
    reference_threshold_cmo,
    reference_threshold_n,
)

THRESHOLDS = st.sampled_from([0, 1, 2, 3, 4, 5, math.inf])


def balanced_vector(data, graph, cap: int = 5) -> list[int]:
    """Draw a balanced nonnegative vector for the given graph."""
    demand = data.draw(
        st.lists(st.integers(0, cap), min_size=graph.n_d, max_size=graph.n_d)
    )
    total = sum(demand)
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(0, total), min_size=graph.n_s - 1, max_size=graph.n_s - 1
            )
        )
    )
    supply = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return demand + supply


# ---- FullMatch ----


def test_full_match_example(complete22):
    u = FullMatch(complete22).decide([2, 0, 1, 1])
    assert u.tolist() == [1, 1, 0, 0]


def test_full_match_requires_complete(n_graph):
    with pytest.raises(WrongGraphClass):
        FullMatch(n_graph)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_full_match_empties_shorter_side(data):
    graph = make_complete22()
    x = balanced_vector(data, graph)
    u = FullMatch(graph).decide(x)
    assert is_admissible(graph, x, u)
    rem = np.asarray(x) - node_usage(graph, u)
    assert rem[: graph.n_d].sum() == 0 or rem[graph.n_d:].sum() == 0


# ---- ThresholdN ----


def test_threshold_n_example(n_graph):
    u = ThresholdN(n_graph, 2).decide([4, 1, 1, 4])
    # Priority pairs saturate, surplus 3 matches only 1 beyond the threshold.
    assert u.tolist() == [1, 1, 1]


def test_threshold_n_zero_clears_perfectly_matchable_states(n_graph):
    pol = ThresholdN(n_graph, 0)
    for x in ([3, 1, 2, 2], [2, 2, 1, 3], [5, 0, 0, 5]):
        if x[0] >= x[2]:
            u = pol.decide(x)
            assert np.array_equal(node_usage(n_graph, u), np.asarray(x))


def test_threshold_n_infinite_never_uses_flexible_edge(n_graph):
    pol = ThresholdN(n_graph, math.inf)
    for x in ([4, 1, 1, 4], [9, 0, 0, 9], [1, 1, 1, 1]):
        assert pol.decide(x)[1] == 0


def test_threshold_n_monotone_in_t(n_graph):
    x = [6, 0, 1, 5]
    flexible = [ThresholdN(n_graph, t).decide(x)[1] for t in range(8)]
    assert flexible == [5, 4, 3, 2, 1, 0, 0, 0]


def test_threshold_n_rejects_bad_t(n_graph):
    with pytest.raises(ValueError):
        ThresholdN(n_graph, -1)
    with pytest.raises(ValueError):
        ThresholdN(n_graph, 1.5)


def test_threshold_n_needs_the_n_graph(cmo33):
    with pytest.raises(WrongGraphClass, match="N-shaped"):
        ThresholdN(cmo33, 0)


def test_subclass_keeps_the_declared_label(n_graph):
    class Renamed(ThresholdN):
        pass

    pol = Renamed(n_graph, 0)
    assert pol.label == "ThresholdN(t=0)"
    assert pol.spec_dict() == {"type": "threshold_n", "t": 0}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_threshold_n_matches_reference_rule(data):
    graph = make_n_graph()
    t = data.draw(THRESHOLDS)
    x = balanced_vector(data, graph)
    assert ThresholdN(graph, t).decide(x).tolist() == reference_threshold_n(graph, t, x).tolist()


# ---- ThresholdCMO ----


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_threshold_cmo_matches_reference_rule(data):
    graph = make_cmo33()
    t = data.draw(THRESHOLDS)
    x = balanced_vector(data, graph)
    expected = reference_threshold_cmo(graph, t, x)
    assert ThresholdCMO(graph, t).decide(x).tolist() == expected.tolist()


def test_threshold_cmo_idle_on_missing_pair_arrival(cmo33):
    # Arrival (d3, s1) lands on the two classes that cannot match each other.
    pol = ThresholdCMO(cmo33, 1)
    u = pol.decide([0, 0, 1, 1, 0, 0])
    assert u.tolist() == [0] * len(cmo33.edges)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_threshold_cmo_commutes_with_projection(data):
    graph = make_cmo33()
    n = make_n_graph()
    t = data.draw(st.sampled_from([0, 1, 2, math.inf]))
    x = balanced_vector(data, graph, cap=4)
    u = ThresholdCMO(graph, t).decide(x)
    assert is_admissible(graph, x, u)
    # Group totals must equal the N rule decision on the projected state.
    grouped = np.zeros(3, dtype=int)
    for count, (i, j) in zip(u, graph.edge_index):
        ii, jj = (0 if i != 2 else 1), (0 if j == 0 else 1)
        if (ii, jj) == (0, 0):
            grouped[0] += count
        elif (ii, jj) == (0, 1):
            grouped[1] += count
        else:
            assert (ii, jj) == (1, 1), "missing-pair edge cannot exist"
            grouped[2] += count
    expected = ThresholdN(n, t).decide(project_state(graph, x))
    assert grouped.tolist() == expected.tolist()


# ---- ThresholdW ----


def test_threshold_w_example(w_graph):
    u = ThresholdW(w_graph, 1, 3).decide([0, 10, 0, 4, 6])
    # Surplus over s1 is 4, threshold 1 leaves 3; surplus over s2 is 6,
    # threshold 3 leaves 3; extremes have nothing to match.
    assert u.tolist() == [0, 3, 3, 0]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_threshold_w_joint_feasibility_on_balanced_states(data):
    graph = make_w_graph()
    t21 = data.draw(st.sampled_from([0, 1, 2, math.inf]))
    t22 = data.draw(st.sampled_from([0, 1, 2, math.inf]))
    x = balanced_vector(data, graph, cap=5)
    u = ThresholdW(graph, t21, t22).decide(x)
    assert is_admissible(graph, x, u)


def test_threshold_w_extremes_saturate(w_graph):
    u = ThresholdW(w_graph, 0, 0).decide([2, 1, 1, 3, 1])
    assert u[0] == 2  # (d1, s1)
    assert u[3] == 1  # (d3, s2)


# ---- ThresholdWWorkload ----


def test_workload_rule_prioritizes_middle_pair(w_graph):
    u = ThresholdWWorkload(w_graph, 4, 2).decide([1, 5, 7, 6, 3])
    # (d1,s1)=1, (d2,s2)=min(5,3)=3, then s2 is exhausted so (d3,s2)=0;
    # workload 2+7=9 beyond threshold 4 allows 5 but only 2 d2 items remain.
    assert u.tolist() == [1, 2, 3, 0]


def test_workload_rule_holds_buffer_in_leaf_class(w_graph):
    u = ThresholdWWorkload(w_graph, 0, 3).decide([0, 0, 5, 2, 4])
    # d3 holds 5; threshold 3 releases 2 toward s2, none toward s1.
    assert u.tolist() == [0, 0, 0, 2]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_workload_rule_admissible(data):
    graph = make_w_graph()
    t21 = data.draw(st.sampled_from([0, 1, 3, math.inf]))
    t32 = data.draw(st.sampled_from([0, 1, 3, math.inf]))
    x = balanced_vector(data, graph, cap=5)
    u = ThresholdWWorkload(graph, t21, t32).decide(x)
    assert is_admissible(graph, x, u)


# ---- PriorityExtreme ----


def test_priority_extreme_matches_single_pair(nn_graph):
    u = PriorityExtreme(nn_graph).decide([1, 0, 0, 1, 0, 0])
    assert u.tolist() == [1, 0, 0, 0, 0]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_priority_extreme_saturates_every_extreme_edge(data):
    graph = make_nn_graph()
    x = balanced_vector(data, graph, cap=4)
    u = PriorityExtreme(graph).decide(x)
    assert is_admissible(graph, x, u)
    # The two extreme edges share no node, so each takes its full min.
    assert u[0] == min(x[0], x[3])
    assert u[4] == min(x[2], x[5])


def test_priority_extreme_with_inner_rule(n_graph):
    pol = PriorityExtreme(n_graph, inner=ThresholdN(n_graph, 0))
    u = pol.decide([3, 0, 1, 2])
    assert u.tolist() == [1, 2, 0]
    assert is_admissible(n_graph, [3, 0, 1, 2], u)


def test_adjacent_extremes_need_costs():
    from matchdp.graphs import MatchingGraph

    star = MatchingGraph(("d1", "d2"), ("s1",), (("d1", "s1"), ("d2", "s1")))
    with pytest.raises(ValueError, match="costs"):
        PriorityExtreme(star)
    costs = CostVector(demand=[1.0, 5.0], supply=[1.0])
    u = PriorityExtreme(star, costs=costs).decide([1, 1, 1])
    # d2 costs more, so the lone supply item goes to (d2, s1).
    assert u.tolist() == [0, 1]
    equal = CostVector(demand=[2.0, 2.0], supply=[1.0])
    u = PriorityExtreme(star, costs=equal).decide([1, 1, 1])
    assert u.tolist() == [1, 0]


# ---- MaxWeight ----


def test_max_weight_example(n_graph):
    pol = MaxWeight(n_graph, unit_costs(n_graph))
    u = pol.decide([1, 0, 1, 0])
    assert u.tolist() == [1, 0, 0]


def test_max_weight_tie_breaks_lexicographically(complete22):
    pol = MaxWeight(complete22, unit_costs(complete22))
    # Both perfect matchings score 8; the lexicographically smaller vector
    # puts its pairs on the later edges.
    u = pol.decide([1, 1, 1, 1])
    assert u.tolist() == [0, 1, 1, 0]


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_max_weight_dominates_all_matchings(data):
    from matchdp.states import admissible_matchings

    graph = make_n_graph()
    costs = CostVector(demand=[2.0, 1.0], supply=[1.0, 3.0])
    x = balanced_vector(data, graph, cap=3)
    vec = np.asarray(x)
    weights = np.array(
        [
            2 * costs.demand[i] * vec[i] + 2 * costs.supply[j] * vec[graph.n_d + j]
            for i, j in graph.edge_index
        ]
    )
    best = MaxWeight(graph, costs).decide(x)
    best_score = float(weights @ best)
    for u in admissible_matchings(graph, x):
        assert float(weights @ u) <= best_score + 1e-12


# ---- MatchLongest ----


def test_match_longest_trace(n_graph):
    u = MatchLongest(n_graph).decide([2, 0, 1, 1])
    assert u.tolist() == [1, 1, 0]


def test_match_longest_label(n_graph):
    assert MatchLongest(n_graph).label == "ML (approximation)"


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_match_longest_leaves_no_matchable_pair(data):
    graph = make_w_graph()
    x = balanced_vector(data, graph, cap=4)
    u = MatchLongest(graph).decide(x)
    assert is_admissible(graph, x, u)
    rem = np.asarray(x) - node_usage(graph, u)
    for i, j in graph.edge_index:
        assert rem[i] == 0 or rem[graph.n_d + j] == 0


# ---- AcyclicHeuristic ----


def test_heuristic_layers(nn_graph):
    pol = AcyclicHeuristic(nn_graph)
    # Edge file order: (d1,s1), (d1,s2), (d2,s2), (d2,s3), (d3,s3).
    assert pol.layers == ((0, 4), (1, 3), (2,))


def test_heuristic_all_infinite_matches_only_extremes(nn_graph):
    thresholds = {n: math.inf for n in nn_graph.node_labels}
    pol = AcyclicHeuristic(nn_graph, thresholds)
    u = pol.decide([2, 2, 2, 2, 2, 2])
    assert u.tolist() == [2, 0, 0, 0, 2]


def test_heuristic_zero_thresholds_cascade(nn_graph):
    u = AcyclicHeuristic(nn_graph).decide([1, 1, 1, 1, 1, 1])
    assert u.tolist() == [1, 0, 1, 0, 1]


def test_heuristic_matches_threshold_n_on_n_graph(n_graph):
    pol = AcyclicHeuristic(n_graph, {"d1": 2})
    ref = ThresholdN(n_graph, 2)
    for x in ([4, 1, 1, 4], [2, 2, 1, 3], [0, 3, 3, 0], [6, 0, 1, 5]):
        assert pol.decide(x).tolist() == ref.decide(x).tolist()


def test_heuristic_rejects_cyclic(complete22, cmo33):
    with pytest.raises(WrongGraphClass):
        AcyclicHeuristic(complete22)
    with pytest.raises(WrongGraphClass):
        AcyclicHeuristic(cmo33)


def test_heuristic_rejects_unknown_nodes(nn_graph):
    with pytest.raises(ValueError, match="unknown"):
        AcyclicHeuristic(nn_graph, {"zz": 1})


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_heuristic_admissible_on_long_chain(data):
    from conftest import make_long_acyclic

    graph = make_long_acyclic()
    x = balanced_vector(data, graph, cap=3)
    u = AcyclicHeuristic(graph, {"d2": 1, "s3": 2}).decide(x)
    assert is_admissible(graph, x, u)


# ---- Tabular ----


def test_tabular_lookup_and_fallback(n_graph):
    table = {(1, 0, 1, 0): [1, 0, 0]}
    pol = Tabular(n_graph, table, fallback=ThresholdN(n_graph, 0))
    assert pol.decide([1, 0, 1, 0]).tolist() == [1, 0, 0]
    assert pol.decide([2, 0, 1, 1]).tolist() == [1, 1, 0]
    bare = Tabular(n_graph, table)
    with pytest.raises(KeyError, match="no stored decision"):
        bare.decide([2, 0, 1, 1])


def test_tabular_rejects_stored_decisions_of_the_wrong_length(n_graph):
    with pytest.raises(ValueError, match="per edge"):
        Tabular(n_graph, {(1, 0, 0, 1): [0, 1]})


def test_tabular_rejects_a_fallback_bound_to_another_graph(n_graph):
    # Same nodes, edges in another order: its decisions would be read in
    # the wrong coordinates.
    other = MatchingGraph(n_graph.demand_nodes, n_graph.supply_nodes, n_graph.edges[::-1])
    with pytest.raises(ValueError, match="bound to another graph"):
        Tabular(n_graph, {}, fallback=ThresholdN(other, 0))
    with pytest.raises(ValueError, match="bound to another graph"):
        Tabular.from_block(
            n_graph, np.zeros((0, 4), dtype=np.int64), np.zeros((0, 3), dtype=np.int64),
            fallback=ThresholdN(other, 0),
        )


def test_tabular_rejects_keys_that_repeat_as_vectors(n_graph):
    class Pairs(dict):
        # A mapping whose keys differ but read as the same vector.
        def __iter__(self):
            return iter([(1, 0, 1, 0), (1, 0, 1, 0)])

    with pytest.raises(ValueError, match="must be distinct"):
        Tabular(n_graph, Pairs({"a": [1, 0, 0], "b": [0, 0, 0]}))


def test_tabular_rejects_a_key_box_beyond_int64_codes(n_graph):
    with pytest.raises(ValueError, match="does not fit int64 ravel codes"):
        Tabular(n_graph, {(2**32, 0, 0, 2**32): [0, 0, 0]})
    with pytest.raises(ValueError, match="does not fit int64 ravel codes"):
        Tabular(n_graph, {(2**64, 0, 0, 1): [0, 0, 0]})


def test_tabular_from_block_checks_the_block(n_graph):
    xs = np.array([[1, 0, 0, 1], [1, 0, 1, 0]])
    with pytest.raises(ValueError, match="does not match the keys"):
        Tabular.from_block(n_graph, xs, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="not integers"):
        Tabular.from_block(n_graph, xs, np.zeros((2, 3)))
    u = np.zeros((2, 3), dtype=np.int64)
    for bad in [xs + 0.5, xs[:, :3], -xs]:
        with pytest.raises(ValueError, match="rows of 4 nonnegative integers"):
            Tabular.from_block(n_graph, bad, u)
    pol = Tabular.from_block(n_graph, xs[::-1], np.array([[1, 0, 0], [0, 1, 0]]))
    assert pol.label == "Tabular[2 states]"
    assert list(pol.table) == [(1, 0, 0, 1), (1, 0, 1, 0)]
    assert pol.decide([1, 0, 0, 1]).tolist() == [0, 1, 0]


def test_tabular_table_is_a_read_only_view_in_key_order(n_graph):
    mapping = {
        (2, 1, 1, 2): [1, 1, 1],
        (0, 1, 1, 0): [0, 0, 1],
        (1, 0, 0, 1): [0, 1, 0],
        (1, 0, 1, 0): [1, 0, 0],
    }
    pol = Tabular(n_graph, mapping)
    view = pol.table
    assert len(view) == 4
    assert list(view) == sorted(mapping)
    assert view.keys() == mapping.keys()
    assert [(x, u.tolist()) for x, u in view.items()] == sorted(mapping.items())
    got = view[(2, 1, 1, 2)]
    got[:] = 7
    assert view[(2, 1, 1, 2)].tolist() == [1, 1, 1]
    assert view[np.array([0, 1, 1, 0])].dtype == np.int64
    for missing in [(0, 0, 0, 0), (3, 0, 0, 3), (1.0, 0, 1, 0), (1, 0, 1)]:
        assert missing not in view
        with pytest.raises(KeyError):
            view[missing]
    assert (1, 0, 1, 0) in view
    with pytest.raises(TypeError):
        view[(1, 0, 1, 0)] = [0, 0, 0]


def _uniform(graph):
    return ArrivalDistribution(
        alpha=np.full(graph.n_d, 1 / graph.n_d), beta=np.full(graph.n_s, 1 / graph.n_s)
    )


def _same_read(pol, ref, xs):
    got = read_decisions(pol, xs)
    want = reference_read_decisions(ref, xs)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


BLOCK_GRAPHS = [
    pytest.param(make_n_graph, id="N"),
    pytest.param(make_w_graph, id="W"),
    pytest.param(make_complete22, id="K22"),
    pytest.param(make_nn_graph, id="NN"),
    pytest.param(make_path23, id="path23"),
]


@pytest.mark.parametrize("maker", BLOCK_GRAPHS)
def test_block_read_matches_the_dict_oracle_on_extracted_tables(maker):
    graph = maker()
    space = TruncatedStateSpace(graph, cap=5, margin=2)
    rng = np.random.default_rng(len(space.balanced_states))
    values = rng.integers(0, 3, size=len(space.balanced_states)).astype(float)
    table = np.repeat(values[:, None], space.n_atoms, axis=1)
    pol = extract_policy(space, table, _uniform(graph))
    mapping = dict(pol.table.items())
    xs = space.interior_post_arrivals
    _same_read(pol, ReferenceTabular(graph, mapping), xs)
    # Every third decision dropped; the rows of the whole space reach past
    # the stored box, and the fallback reads them.
    kept = {x: u for k, (x, u) in enumerate(mapping.items()) if k % 3}
    fallback = MatchLongest(graph)
    _same_read(
        Tabular(graph, kept, fallback), ReferenceTabular(graph, kept, fallback),
        space.balanced_states,
    )
    nested = Tabular(graph, {x: mapping[x] for x in mapping if x not in kept}, fallback)
    _same_read(Tabular(graph, kept, nested), ReferenceTabular(graph, mapping, fallback), xs)
    # Without a fallback both raise on the same first missing x.
    with pytest.raises(MissingDecision) as want:
        reference_read_decisions(ReferenceTabular(graph, kept), space.balanced_states)
    with pytest.raises(MissingDecision) as got:
        read_decisions(Tabular(graph, kept), space.balanced_states)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("maker", BLOCK_GRAPHS)
@pytest.mark.parametrize("seed", [0, 1])
def test_block_read_matches_the_dict_oracle_on_hand_built_tables(maker, seed):
    graph = maker()
    n, n_edges = graph.n_nodes, len(graph.edges)
    rng = np.random.default_rng(seed)
    keys = {tuple(v) for v in rng.integers(0, 5, size=(40, n)).tolist()}
    # Counts from -1 to 2: negative counts and overdraws flag rows.
    mapping = {x: rng.integers(-1, 3, size=n_edges) for x in keys}
    xs = np.vstack([np.array(sorted(keys)), rng.integers(0, 8, size=(40, n))])
    rng.shuffle(xs)
    fallback = MatchLongest(graph)
    _same_read(Tabular(graph, mapping, fallback), ReferenceTabular(graph, mapping, fallback), xs)
    stored = xs[[tuple(x) in keys for x in xs.tolist()]]
    _same_read(Tabular(graph, mapping), ReferenceTabular(graph, mapping), stored)
    with pytest.raises(MissingDecision) as want:
        reference_read_decisions(ReferenceTabular(graph, mapping), xs)
    with pytest.raises(MissingDecision) as got:
        read_decisions(Tabular(graph, mapping), xs)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("length, wrong", WRONG_LENGTHS)
def test_block_read_checks_the_fallback_decisions(n_graph, length, wrong):
    pol = Tabular(n_graph, {(1, 0, 0, 1): [0, 1, 0]}, ZeroOfLength(n_graph, length))
    xs = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1]])
    with pytest.raises(ValueError, match=rf"per edge \(3\), got shape \({wrong},\)"):
        read_decisions(pol, xs)


def test_block_read_of_rows_that_are_not_count_vectors_is_read_row_by_row(n_graph):
    pol = Tabular(n_graph, {(1, 0, 0, 1): [0, 1, 0]}, ThresholdN(n_graph, 0))
    with pytest.raises(ValueError, match="must be nonnegative"):
        read_decisions(pol, np.array([[1, 0, 0, 1], [-1, 0, 0, -1]]))
    with pytest.raises(ValueError, match="must be integers"):
        read_decisions(pol, np.array([[1.0, 0.0, 0.0, 1.0]]))


def _cmo33_reordered() -> MatchingGraph:
    graph = make_cmo33()
    return MatchingGraph(
        demand_nodes=graph.demand_nodes,
        supply_nodes=graph.supply_nodes,
        edges=tuple(graph.edges[k] for k in (4, 0, 7, 2, 6, 1, 5, 3)),
    )


THRESHOLD_BLOCK_RULES = [
    pytest.param(lambda t: ThresholdN(make_n_graph(), t), id="N"),
    pytest.param(lambda t: ThresholdCMO(make_cmo33(), t), id="cmo33"),
    pytest.param(lambda t: ThresholdCMO(_cmo33_reordered(), t), id="cmo33-reordered"),
]


@pytest.mark.parametrize("t", [0, 1, 3, math.inf])
@pytest.mark.parametrize("build", THRESHOLD_BLOCK_RULES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_threshold_block_read_equals_decide_row_by_row(build, t, data):
    pol = build(t)
    graph = pol.graph
    n = graph.n_nodes
    # Balanced rows, as the solvers read, and unbalanced ones, in any
    # integer dtype.
    rows = data.draw(st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n), max_size=30))
    rows += [balanced_vector(data, graph, cap=7) for _ in range(data.draw(st.integers(0, 10)))]
    dtype = data.draw(st.sampled_from([np.int64, np.int32, np.uint8]))
    xs = np.array(rows, dtype=dtype).reshape(-1, n)
    want = np.array([pol.decide(x) for x in xs], dtype=np.int64).reshape(-1, len(graph.edges))
    got = pol._decide_rows(xs)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    _same_read(pol, pol, xs)


def test_threshold_block_with_entries_past_int64_sums_is_read_in_python_ints(cmo33):
    # The d1 group total 2**63 wraps in int64, not in Python ints.
    pol = ThresholdCMO(cmo33, 1)
    big = 2**62
    xs = np.array([[big, big, 0, 0, big, big], [1, 2, 0, 1, 1, 1]])
    _same_read(pol, pol, xs)


NOT_COUNT_BLOCKS = {
    "float-row": np.array([[1, 0, 0, 1], [0.5, 0, 0, 0.5]]),
    "negative-row": np.array([[1, 0, 0, 1], [2, -1, 0, 1]]),
    "narrow-block": np.array([[1, 0, 1], [0, 1, 1]]),
    "wrong-width-row": [[1, 0, 0, 1], [1, 0, 1], [0, 1, 1, 0]],
}


@pytest.mark.parametrize("t", [0, math.inf])
@pytest.mark.parametrize("block", NOT_COUNT_BLOCKS.values(), ids=NOT_COUNT_BLOCKS.keys())
def test_threshold_block_of_rows_that_are_not_count_vectors_raises_the_row_error(
    n_graph, block, t
):
    pol = ThresholdN(n_graph, t)
    with pytest.raises(ValueError) as want:
        reference_read_decisions(pol, block)
    with pytest.raises(ValueError) as got:
        read_decisions(pol, block)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("t", [0, 2, math.inf])
def test_threshold_evaluation_and_shape_verdict_equal_the_row_by_row_read(n_graph, t):
    class RowByRow(ThresholdN):
        """ThresholdN whose own ``decide`` sends every read row by row."""

        def decide(self, x):
            return super().decide(x)

    space = TruncatedStateSpace(n_graph, cap=10, margin=3)
    costs = CostVector(demand=np.array([1.0, 5.0]), supply=np.array([4.0, 2.0]))
    arrivals = ArrivalDistribution(alpha=np.array([0.6, 0.4]), beta=np.array([0.4, 0.6]))
    block, rows = ThresholdN(n_graph, t), RowByRow(n_graph, t)
    gain, vf = evaluate_policy(space, block, costs, arrivals, mode="average")
    row_gain, row_vf = evaluate_policy(space, rows, costs, arrivals, mode="average")
    assert gain == row_gain and vf.iterations == row_vf.iterations
    assert np.array_equal(vf.data, row_vf.data)
    assert verify_policy_shape(space, block, "threshold_n") == verify_policy_shape(
        space, rows, "threshold_n"
    )


# ---- JSON specs ----


@pytest.mark.parametrize(
    "builder",
    [
        lambda g: FullMatch(make_complete22()),
        lambda g: ThresholdN(g, 3),
        lambda g: ThresholdN(g, math.inf),
        lambda g: ThresholdCMO(make_cmo33(), 2),
        lambda g: ThresholdW(make_w_graph(), 11, 0),
        lambda g: ThresholdWWorkload(make_w_graph(), 14, 0),
        lambda g: PriorityExtreme(make_nn_graph()),
        lambda g: MaxWeight(g, unit_costs(g)),
        lambda g: MatchLongest(g),
        lambda g: AcyclicHeuristic(make_nn_graph(), {"s3": 9, "d2": math.inf}),
    ],
)
def test_policy_spec_round_trip(builder, n_graph):
    pol = builder(n_graph)
    spec = pol.spec_dict()
    rebuilt = policy_from_spec(pol.graph, spec, costs=unit_costs(pol.graph))
    assert rebuilt.label == pol.label
    assert rebuilt.spec_dict() == spec


def test_policy_spec_inner_round_trip(n_graph):
    pol = PriorityExtreme(n_graph, inner=ThresholdN(n_graph, 1))
    spec = pol.spec_dict()
    rebuilt = policy_from_spec(n_graph, spec)
    assert rebuilt.label == pol.label


@pytest.mark.parametrize(
    "spec, needle",
    [
        ({"type": "no_such"}, "unknown policy type"),
        ({"type": "threshold_n"}, "missing field 't'"),
        ({"type": "threshold_n", "t": -2}, "invalid"),
        ({"type": "threshold_n", "t": "three"}, "integer"),
        ({"type": "max_weight"}, "cost"),
        ({"type": "full_match"}, "invalid"),
        ("threshold_n", "object"),
    ],
)
def test_policy_spec_errors(n_graph, spec, needle):
    with pytest.raises(ParseError, match=needle):
        policy_from_spec(n_graph, spec)


def test_wrong_typed_threshold_names_the_policy_and_the_value(n_graph):
    with pytest.raises(ParseError) as info:
        policy_from_spec(n_graph, {"type": "threshold_n", "t": "three"})
    assert str(info.value) == (
        "invalid threshold_n policy: t must be a nonnegative integer or inf, got 'three'"
    )


def test_tabular_not_loadable(n_graph):
    pol = Tabular(n_graph, {})
    with pytest.raises(ParseError, match="unknown policy type"):
        policy_from_spec(n_graph, pol.spec_dict())


def test_read_decisions_flags_negative_counts_and_overdraws(n_graph):
    # Edges in file order: (d1,s1), (d1,s2), (d2,s2).
    xs = np.array([[1, 0, 0, 1], [2, 1, 1, 2], [0, 1, 1, 0]])
    decisions = {
        (1, 0, 0, 1): [0, 1, 0],
        (2, 1, 1, 2): [1, -1, 1],
        (0, 1, 1, 0): [0, 0, 2],
    }
    u, residual, inadmissible = read_decisions(Tabular(n_graph, decisions), xs)
    assert u.tolist() == [[0, 1, 0], [1, -1, 1], [0, 0, 2]]
    assert residual.tolist() == [[0, 0, 0, 0], [2, 0, 0, 2], [0, -1, 1, -2]]
    assert inadmissible.tolist() == [False, True, True]
    with pytest.raises(ValueError, match="per edge"):
        read_decisions(Tabular(n_graph, {(1, 0, 0, 1): [0, 1]}), xs[:1])


def test_read_decisions_rejects_fractional_counts(n_graph):
    xs = np.array([[1, 0, 0, 1], [2, 1, 1, 2]])
    with pytest.raises(ValueError, match="Fractional returned match counts of dtype float64"):
        read_decisions(Fractional(n_graph), xs)


@pytest.mark.parametrize(
    "key, message",
    [
        pytest.param((1.9, 0, 1, 0), "must be integers", id="float"),
        pytest.param(("1", 0, 1, 0), "must be integers", id="string"),
        pytest.param((True, 0, True, 0), "must be integers", id="bool"),
        pytest.param((1, -1, 1, 0), "must be nonnegative", id="negative"),
        pytest.param((1, 0, 1), "must have length 4", id="short"),
    ],
)
def test_tabular_rejects_keys_that_are_not_vectors_of_counts(n_graph, key, message):
    with pytest.raises(ValueError, match=message):
        Tabular(n_graph, {key: [1, 0, 0]})


def test_tabular_rejects_fractional_stored_counts(n_graph):
    x = (1, 0, 1, 0)
    with pytest.raises(ValueError, match=r"not integers: \[1\.9, 0\.0, 0\.0\]"):
        Tabular(n_graph, {x: Fractional(n_graph).decide(x)})


def test_priority_extreme_rejects_fractional_inner_counts(n_graph):
    pol = PriorityExtreme(n_graph, inner=Fractional(n_graph))
    with pytest.raises(ValueError, match=r"not integers: \[0\.9, 0\.0, 0\.0\]"):
        pol.decide([1, 0, 0, 1])


# ---- the decide contract ----


@pytest.mark.parametrize(
    "x",
    [[1.5, 0.5, 0.5, 1.5], [1.0, 0, 0, 1], ["1", "0", "0", "1"],
     np.array([1.0, 0.0, 0.0, 1.0]), [True, False, False, True],
     np.array([True, False, False, True])],
    ids=["float", "integral-float", "string", "float-array", "bool", "bool-array"],
)
def test_decide_rejects_non_integer_entries(n_graph, x):
    for policy in (ThresholdN(n_graph, 0), MaxWeight(n_graph, unit_costs(n_graph))):
        with pytest.raises(ValueError, match="integers"):
            policy.decide(x)


def test_decide_takes_ints_and_integer_rows_alike(n_graph):
    policy = ThresholdN(n_graph, 0)
    row = np.array([[1, 0, 0, 1]], dtype=np.int64)[0]
    for x in ([1, 0, 0, 1], row, (np.int64(1), 0, 0, np.int32(1))):
        u = policy.decide(x)
        assert u.dtype == np.int64
        assert u.tolist() == [0, 1, 0]


# ---- every rule against its numpy formula, on boxes of vectors ----


def _decision_or_raise(decide, x):
    try:
        return decide(x).tolist()
    except (Inadmissible, ValueError) as exc:
        return type(exc), str(exc)


NON_INTEGER_COSTS = CostVector(demand=[0.3, 1.7, 2.9], supply=[2.9, 0.3, 1.7])
INTEGER_COSTS = CostVector(demand=[1.0, 3.0, 2.0], supply=[2.0, 1.0, 3.0])


def _oracle_grids():
    """(graph, policies, box side): every vector of [0, side)^nodes is checked."""
    n, w, c22, cmo, nn = (
        make_n_graph(), make_w_graph(), make_complete22(), make_cmo33(), make_nn_graph()
    )
    return {
        "n": (n, [ThresholdN(n, t) for t in (0, 2, math.inf)], 6),
        "w": (w, [ThresholdW(w, 0, 0), ThresholdW(w, 1, 2),
                  ThresholdWWorkload(w, 0, 0), ThresholdWWorkload(w, 2, 1)], 4),
        "complete22": (c22, [FullMatch(c22), MatchLongest(c22)], 5),
        "cmo33": (cmo, [ThresholdCMO(cmo, t) for t in (0, 1, math.inf)], 3),
        "nn": (nn, [
            AcyclicHeuristic(nn, {"s3": 1}),
            AcyclicHeuristic(nn, {"d2": 2, "s2": math.inf}),
            MaxWeight(nn, INTEGER_COSTS),
            MaxWeight(nn, NON_INTEGER_COSTS),
            PriorityExtreme(nn),
            PriorityExtreme(nn, inner=MaxWeight(nn, NON_INTEGER_COSTS)),
            PriorityExtreme(nn, inner=AcyclicHeuristic(nn, {"s3": 1})),
        ], 3),
    }


@pytest.mark.parametrize("name", sorted(_oracle_grids()))
def test_decisions_equal_the_numpy_oracle_on_a_box(name):
    graph, policies, side = _oracle_grids()[name]
    raised = 0
    for x in itertools.product(range(side), repeat=graph.n_nodes):
        for policy in policies:
            want = _decision_or_raise(lambda v: reference_decide(policy, v), x)
            assert _decision_or_raise(policy.decide, list(x)) == want, (policy.label, x)
            raised += isinstance(want, tuple)
    # ThresholdW(0, 0) overdraws the middle class on unbalanced vectors.
    assert (raised > 0) == (name == "w")


@pytest.mark.parametrize("build", [MaxWeight, lambda graph, costs: PriorityExtreme(graph, costs=costs)],
                         ids=["MaxWeight", "PriorityExtreme"])
@pytest.mark.parametrize("field, entries, message", OTHER_COSTS)
def test_costs_sized_for_another_graph_are_rejected(build, field, entries, message):
    _, costs = n_inputs(field, entries)
    with pytest.raises(ValueError, match=message):
        build(make_n_graph(), costs)
