"""State dynamics: matching enumeration, transitions, the roles of classify."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdp.errors import ActionSpaceBudget, Inadmissible, WrongGraphClass
from matchdp.graphs import N_SHAPED, W_SHAPED, classify, role_positions
from matchdp.policies import Policy, read_decisions
from matchdp.states import (
    _left,
    admissible_matchings,
    arrival_vector,
    as_state,
    check_queue_state,
    is_admissible,
    is_balanced,
    node_usage,
    post_arrival,
    transition,
)

from conftest import (
    BAD_ATOMS,
    make_cmo33,
    make_complete22,
    make_n_graph,
    make_nn_graph,
    make_w_graph,
)
from oracles import brute_admissible, reference_admissible_matchings

GRAPH_MAKERS = {
    "n": make_n_graph,
    "w": make_w_graph,
    "complete22": make_complete22,
    "nn": make_nn_graph,
    "cmo33": make_cmo33,
}


def test_state_validation(n_graph):
    with pytest.raises(ValueError, match="length 4"):
        check_queue_state(n_graph, [1, 2, 3])
    with pytest.raises(ValueError, match="nonnegative"):
        check_queue_state(n_graph, [1, -1, 0, 0])
    with pytest.raises(ValueError, match="balanced"):
        check_queue_state(n_graph, [1, 0, 0, 0])
    assert is_balanced(n_graph, [2, 1, 1, 2])
    assert not is_balanced(n_graph, [2, 1, 1, 1])


def test_arrival_vector(n_graph):
    assert arrival_vector(n_graph, 0, 1).tolist() == [1, 0, 0, 1]
    assert post_arrival(n_graph, [1, 1, 2, 0], 1, 0).tolist() == [1, 2, 3, 0]
    with pytest.raises(ValueError, match="out of range"):
        arrival_vector(n_graph, 2, 0)


def test_node_usage(n_graph):
    # Edges in file order: (d1,s1), (d1,s2), (d2,s2).
    assert node_usage(n_graph, [1, 2, 1]).tolist() == [3, 1, 1, 3]
    with pytest.raises(ValueError, match="per edge"):
        node_usage(n_graph, [1, 2])


def test_node_usage_reads_a_block_row_by_row(n_graph):
    block = np.array([[[1, 2, 1], [0, 0, 0]], [[0, 1, 3], [2, 0, 0]]])
    want = [[node_usage(n_graph, u).tolist() for u in rows] for rows in block]
    assert node_usage(n_graph, block).tolist() == want
    with pytest.raises(ValueError, match="per edge"):
        node_usage(n_graph, np.zeros((3, 2), dtype=int))


def test_admissible_small_example(n_graph):
    got = [tuple(u) for u in admissible_matchings(n_graph, [1, 0, 1, 0])]
    assert got == [(0, 0, 0), (1, 0, 0)]


def test_admissible_against_oracle_spot(n_graph):
    x = [2, 0, 1, 1]
    got = [tuple(u) for u in admissible_matchings(n_graph, x)]
    want = brute_admissible(n_graph, x)
    assert got == want
    assert len(got) == 4


def test_zero_matching_comes_first_and_order_is_lexicographic():
    g = make_complete22()
    got = [tuple(u) for u in admissible_matchings(g, [2, 1, 1, 2])]
    assert got[0] == (0, 0, 0, 0)
    assert got == sorted(got)


@pytest.mark.parametrize("name", sorted(GRAPH_MAKERS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_admissible_matches_oracle(name, data):
    graph = GRAPH_MAKERS[name]()
    x = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=graph.n_nodes,
            max_size=graph.n_nodes,
        )
    )
    got = [tuple(u) for u in admissible_matchings(graph, x)]
    assert got == brute_admissible(graph, x)
    for u in got:
        assert is_admissible(graph, x, u)


def test_action_budget_raises_mid_iteration():
    g = make_complete22()
    seen = 0
    with pytest.raises(ActionSpaceBudget):
        for _ in admissible_matchings(g, [40, 40, 40, 40], budget=10):
            seen += 1
    assert seen == 10


def _yields_until_raise(matchings, x, budget):
    """The matchings yielded before the enumeration ends or raises, and the raise."""
    seen = []
    try:
        for u in matchings(make_nn_graph(), x, budget):
            assert u.dtype == np.int64
            seen.append(u.tolist())
    except ActionSpaceBudget as exc:
        return seen, str(exc)
    return seen, None


@pytest.mark.parametrize("budget", [0, 1, 2, 7, 10**6])
def test_enumerator_equals_the_recursive_oracle(budget):
    for x in itertools.product(range(3), repeat=6):
        want = _yields_until_raise(reference_admissible_matchings, x, budget)
        assert _yields_until_raise(admissible_matchings, list(x), budget) == want, x


@pytest.mark.parametrize(
    "x",
    [[1.9, 0, 0, 1.9], [1.0, 0, 0, 1.0], ["1", "0", "0", "1"], np.array([1.0, 0, 0, 1]),
     [True, 0, 0, True], np.array([True, False, False, True])],
    ids=["float", "integral-float", "string", "float-array", "bool", "bool-array"],
)
def test_non_integer_states_are_rejected(n_graph, x):
    with pytest.raises(ValueError, match="integers"):
        as_state(n_graph, x)
    with pytest.raises(ValueError, match="integers"):
        admissible_matchings(n_graph, x)


def test_integer_rows_and_numpy_ints_pass(n_graph):
    row = np.array([[2, 0, 1, 1]], dtype=np.int64)[0]
    for x in (row, [np.int64(2), 0, 1, np.int32(1)], row.astype(np.uint8)):
        assert as_state(n_graph, x).tolist() == [2, 0, 1, 1]
        assert as_state(n_graph, x).dtype == np.int64
        assert len(list(admissible_matchings(n_graph, x))) == 4


def test_transition_balance_and_errors(n_graph):
    q_next = transition(n_graph, [1, 0, 0, 1], (0, 0), [1, 1, 0])
    assert q_next.tolist() == [0, 0, 0, 0]
    with pytest.raises(Inadmissible):
        transition(n_graph, [0, 0, 0, 0], (0, 0), [0, 1, 0])
    with pytest.raises(ValueError, match="balanced"):
        transition(n_graph, [1, 0, 0, 0], (0, 0), [0, 0, 0])


@pytest.mark.parametrize("name", ["n", "w", "cmo33"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_transition_preserves_balance(name, data):
    graph = GRAPH_MAKERS[name]()
    demand = data.draw(
        st.lists(st.integers(0, 3), min_size=graph.n_d, max_size=graph.n_d)
    )
    total = sum(demand)
    supply = data.draw(
        st.lists(st.integers(0, total), min_size=graph.n_s - 1, max_size=graph.n_s - 1)
        .filter(lambda xs: sum(xs) <= total)
    )
    supply = supply + [total - sum(supply)]
    q = demand + supply
    i = data.draw(st.integers(0, graph.n_d - 1))
    j = data.draw(st.integers(0, graph.n_s - 1))
    x = post_arrival(graph, q, i, j)
    options = list(admissible_matchings(graph, x))
    u = options[data.draw(st.integers(0, len(options) - 1))]
    q_next = transition(graph, q, (i, j), u)
    assert is_balanced(graph, q_next)
    assert np.all(q_next >= 0)


@pytest.mark.parametrize(
    "u", [[0.5, 0, 0], [True, False, False]], ids=["fractional", "bool"]
)
def test_non_integer_match_counts_are_rejected(n_graph, u):
    dtype = np.asarray(u).dtype
    message = f"matching vector holds match counts of dtype {dtype}, not integers"
    with pytest.raises(ValueError, match=message):
        node_usage(n_graph, u)
    with pytest.raises(ValueError, match=message):
        is_admissible(n_graph, [1, 0, 0, 1], u)
    with pytest.raises(ValueError, match=message):
        transition(n_graph, [0, 0, 0, 0], (0, 0), u)


@pytest.mark.parametrize("atom, message", BAD_ATOMS[1:])
def test_arrival_vector_rejects_non_integer_atoms(n_graph, atom, message):
    with pytest.raises(ValueError, match=message):
        arrival_vector(n_graph, *atom)


@pytest.mark.parametrize("name", sorted(GRAPH_MAKERS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_left_is_the_residual_and_the_mask_of_read_decisions(name, data):
    graph = GRAPH_MAKERS[name]()
    x = data.draw(st.lists(st.integers(0, 3), min_size=graph.n_nodes, max_size=graph.n_nodes))
    n_edges = len(graph.edges)
    u = data.draw(st.lists(st.integers(-1, 3), min_size=n_edges, max_size=n_edges))

    class Fixed(Policy):
        def decide(self, _):
            return np.array(u, dtype=np.int64)

    _, residual, inadmissible = read_decisions(Fixed(graph), np.array([x], dtype=np.int64))
    shown = list(x)
    left = _left(graph, x, u)
    assert x == shown  # x is left as it was
    assert (left is None) == bool(inadmissible[0])
    if left is not None:
        assert left == residual[0].tolist() == (np.array(x) - node_usage(graph, u)).tolist()


# ---- roles from classify, and residual sets ----


def test_n_layout_roles(n_graph):
    assert classify(n_graph).roles == ((0,), 1, 2, (3,))


def test_n_layout_detects_permuted_roles():
    g = type(make_n_graph())(
        demand_nodes=("a", "b"),
        supply_nodes=("u", "v"),
        edges=(("b", "u"), ("b", "v"), ("a", "u")),
    )
    # b is flexible (both supplies), a only matches u, so u is flexible.
    (d1,), d2, s1, (s2,) = classify(g).roles
    assert g.demand_nodes[d1] == "b"
    assert g.demand_nodes[d2] == "a"
    assert g.node_labels[s1] == "v"
    assert g.node_labels[s2] == "u"


def test_w_layout_roles(w_graph):
    assert classify(w_graph).roles == (0, 1, 2, 3, 4)


def test_w_layout_follows_supply_file_order():
    g = type(make_w_graph())(
        demand_nodes=("p", "mid", "r"),
        supply_nodes=("y", "x"),
        edges=(("p", "x"), ("mid", "x"), ("mid", "y"), ("r", "y")),
    )
    d1, d2, d3, s1, s2 = classify(g).roles
    assert g.demand_nodes[d2] == "mid"
    # First supply in file order plays the s1 role; its leaf partner is d1.
    assert g.node_labels[s1] == "y"
    assert g.demand_nodes[d1] == "r"
    assert g.demand_nodes[d3] == "p"


def test_layout_rejects_wrong_class(complete22, w_graph, n_graph):
    with pytest.raises(WrongGraphClass, match="N layout needs an N-shaped graph, got complete"):
        role_positions(complete22, N_SHAPED)
    with pytest.raises(WrongGraphClass, match="N layout needs an N-shaped graph, got w_shaped"):
        role_positions(w_graph, N_SHAPED)
    with pytest.raises(WrongGraphClass, match="W layout needs a W-shaped graph, got n_shaped"):
        role_positions(n_graph, W_SHAPED)
    assert classify(complete22).roles == ()
