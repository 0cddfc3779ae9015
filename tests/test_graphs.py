"""Graph model: validation, classification, stability, N projection, files."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdp.errors import NotCompleteMinusOne, ParseError, SubsetExplosion
from matchdp.graphs import (
    ACYCLIC,
    COMPLETE,
    COMPLETE_MINUS_ONE,
    GENERAL_CYCLIC,
    N_SHAPED,
    W_SHAPED,
    ArrivalDistribution,
    CostVector,
    MatchingGraph,
    StabilityReport,
    check_projected_cost,
    check_stability,
    classify,
    load_graph,
    project_arrival,
    project_state,
    projected_arrival_law,
    read_graph_document,
)

from conftest import (
    BAD_ATOMS,
    OTHER_ARRIVALS,
    make_cmo33,
    make_complete22,
    make_long_acyclic,
    make_n_graph,
    make_nn_graph,
    make_w_graph,
    n_inputs,
)
from oracles import reference_roles


# ---- construction and validation ----


def test_graph_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="unique"):
        MatchingGraph(("a", "a"), ("s1", "s2"), (("a", "s1"), ("a", "s2")))
    with pytest.raises(ValueError, match="unique"):
        MatchingGraph(("x",), ("x",), (("x", "x"),))


def test_graph_rejects_unknown_endpoint():
    with pytest.raises(ValueError, match="not a supply node"):
        MatchingGraph(("d1",), ("s1",), (("d1", "zz"),))
    with pytest.raises(ValueError, match="not a demand node"):
        MatchingGraph(("d1",), ("s1",), (("s1", "s1"),))


def test_graph_rejects_uncovered_node():
    with pytest.raises(ValueError, match="without any edge"):
        MatchingGraph(("d1", "d2"), ("s1",), (("d1", "s1"),))


def test_graph_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        MatchingGraph(
            ("d1", "d2"),
            ("s1", "s2"),
            (("d1", "s1"), ("d2", "s2")),
        )


def test_graph_rejects_duplicate_edges():
    with pytest.raises(ValueError, match="duplicate"):
        MatchingGraph(("d1",), ("s1",), (("d1", "s1"), ("d1", "s1")))


def test_arrival_distribution_tolerance():
    ArrivalDistribution(alpha=[0.6, 0.4 + 5e-13], beta=[0.5, 0.5])
    with pytest.raises(ValueError, match="sum to 1"):
        ArrivalDistribution(alpha=[0.6, 0.4 + 5e-12], beta=[0.5, 0.5])
    with pytest.raises(ValueError, match="strictly positive"):
        ArrivalDistribution(alpha=[1.0, 0.0], beta=[0.5, 0.5])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_arrival_distribution_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="alpha entries must be finite"):
        ArrivalDistribution(alpha=[bad, bad], beta=[0.5, 0.5])
    with pytest.raises(ValueError, match="beta entries must be finite"):
        ArrivalDistribution(alpha=[0.5, 0.5], beta=[0.5, bad])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_cost_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="demand costs must be finite"):
        CostVector(demand=[1.0, bad], supply=[1.0, 1.0])
    with pytest.raises(ValueError, match="supply costs must be finite"):
        CostVector(demand=[1.0, 1.0], supply=[bad, 1.0])


def test_cost_vector_validation(n_graph):
    with pytest.raises(ValueError, match="nonnegative"):
        CostVector(demand=[1.0, -0.5], supply=[1.0, 1.0])
    with pytest.raises(ValueError, match="missing"):
        CostVector.from_mapping(n_graph, {"d1": 1, "d2": 1, "s1": 1})
    with pytest.raises(ValueError, match="unknown"):
        CostVector.from_mapping(
            n_graph, {"d1": 1, "d2": 1, "s1": 1, "s2": 1, "zz": 9}
        )
    cv = CostVector.from_mapping(n_graph, {"d1": 1, "d2": 2, "s1": 3, "s2": 4})
    assert cv.vector.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_edge_index_follows_file_order(n_graph):
    assert n_graph.edge_index == ((0, 0), (0, 1), (1, 1))
    assert n_graph.supply_neighbors == ((0, 1), (1,))
    assert n_graph.demand_neighbors == ((0,), (0, 1))


# ---- classification ----


def test_classify_tags():
    assert classify(make_complete22()).tag == COMPLETE
    assert classify(make_n_graph()).tag == N_SHAPED
    assert classify(make_w_graph()).tag == W_SHAPED
    assert classify(make_cmo33()).tag == COMPLETE_MINUS_ONE
    assert classify(make_nn_graph()).tag == ACYCLIC
    assert classify(make_long_acyclic()).tag == ACYCLIC


def test_classify_general_cyclic():
    # NN path plus the chord (d3, s1) closes a 6-cycle.
    g = MatchingGraph(
        ("d1", "d2", "d3"),
        ("s1", "s2", "s3"),
        (
            ("d1", "s1"), ("d1", "s2"), ("d2", "s2"),
            ("d2", "s3"), ("d3", "s3"), ("d3", "s1"),
        ),
    )
    assert classify(g).tag == GENERAL_CYCLIC


def test_classify_two_by_two_prefers_n_shape():
    info = classify(make_n_graph())
    assert info.tag == N_SHAPED
    assert info.missing_edge == (1, 0)


def test_classify_missing_edge_cmo():
    info = classify(make_cmo33())
    assert info.missing_edge == (2, 0)


def test_extreme_edges():
    assert set(classify(make_n_graph()).extreme_edges) == {(0, 0), (1, 1)}
    assert set(classify(make_w_graph()).extreme_edges) == {(0, 0), (2, 1)}
    assert set(classify(make_nn_graph()).extreme_edges) == {(0, 0), (2, 2)}
    assert set(classify(make_long_acyclic()).extreme_edges) == {
        (0, 0), (2, 2), (5, 4),
    }
    assert classify(make_complete22()).extreme_edges == ()


# ---- stability ----


def test_n_graph_stability_example(n_graph):
    report = check_stability(
        n_graph, ArrivalDistribution(alpha=[0.6, 0.4], beta=[0.4, 0.6])
    )
    assert report.stable
    assert report.exhaustive
    assert report.violation_count == 0
    # 2 proper nonempty subsets per side
    assert report.subsets_checked == 4


def test_n_graph_equality_is_unstable(n_graph):
    report = check_stability(
        n_graph, ArrivalDistribution(alpha=[0.5, 0.5], beta=[0.5, 0.5])
    )
    assert not report.stable
    sides = {(v.side, v.nodes) for v in report.violations}
    # d2 carries 0.5 against its only neighbor s2 with 0.5: not strict.
    assert ("demand", ("d2",)) in sides


def test_w_graph_counterexample_rates_are_stable(w_graph):
    report = check_stability(
        w_graph, ArrivalDistribution(alpha=[0.4, 0.35, 0.25], beta=[0.5, 0.5])
    )
    assert report.stable


def test_nn_delta_half_is_unstable(nn_graph):
    delta = 0.5
    beta = [2 / 6 - delta / 2, 3 / 6 - delta / 2, 1 / 6 + delta]
    report = check_stability(
        nn_graph, ArrivalDistribution(alpha=[3 / 6, 2 / 6, 1 / 6], beta=beta)
    )
    assert not report.stable
    assert ("supply", ("s3",)) in {(v.side, v.nodes) for v in report.violations}


def test_complete_graphs_always_stable():
    rng = np.random.default_rng(7)
    g = make_complete22()
    for _ in range(25):
        alpha = rng.dirichlet([1.0, 1.0])
        beta = rng.dirichlet([1.0, 1.0])
        report = check_stability(g, ArrivalDistribution(alpha=alpha, beta=beta))
        assert report.stable, (alpha, beta)


def test_violation_records_mass(n_graph):
    report = check_stability(
        n_graph, ArrivalDistribution(alpha=[0.3, 0.7], beta=[0.5, 0.5])
    )
    assert not report.stable
    bad = next(v for v in report.violations if v.nodes == ("d2",))
    assert bad.mass == pytest.approx(0.7)
    assert bad.neighbor_mass == pytest.approx(0.5)


def _big_diagonal_cycle(n: int) -> MatchingGraph:
    demands = tuple(f"d{i}" for i in range(n))
    supplies = tuple(f"s{j}" for j in range(n))
    edges = []
    for i in range(n):
        edges.append((f"d{i}", f"s{i}"))
        edges.append((f"d{i}", f"s{(i + 1) % n}"))
    return MatchingGraph(demands, supplies, tuple(edges))


def test_subset_explosion_over_the_node_cap():
    g = _big_diagonal_cycle(13)
    assert g.n_nodes == 26
    alpha = np.full(13, 1 / 13)
    alpha[0] = 0.99
    alpha[1:] = 0.01 / 12
    arr = ArrivalDistribution(alpha=alpha, beta=np.full(13, 1 / 13))
    with pytest.raises(SubsetExplosion, match="exceed the exhaustive subset cap of 24$"):
        check_stability(g, arr)


def test_violation_record_cap():
    g = _big_diagonal_cycle(8)
    alpha = np.full(8, 1 / 8)
    alpha[0] = 0.93
    alpha[1:] = 0.07 / 7
    report = check_stability(g, arr := ArrivalDistribution(alpha=alpha, beta=np.full(8, 1 / 8)))
    assert report.violation_count > StabilityReport.MAX_RECORDED
    assert len(report.violations) == StabilityReport.MAX_RECORDED


# ---- projection onto the N model ----


def test_projection_requires_complete_minus_one(w_graph, nn_graph):
    arrivals = ArrivalDistribution(alpha=[0.4, 0.3, 0.3], beta=[0.5, 0.5])
    costs = CostVector(demand=[1.0] * 3, supply=[1.0] * 2)
    calls = (
        lambda g: project_state(g, [0] * g.n_nodes),
        lambda g: project_arrival(g, 0, 0),
        lambda g: projected_arrival_law(g, arrivals),
        lambda g: check_projected_cost(g, costs, [1, 1, 1, 1]),
    )
    for g in (w_graph, nn_graph):
        for call in calls:
            with pytest.raises(
                NotCompleteMinusOne, match="projection needs a complete-minus-one graph, got"
            ):
                call(g)


def test_projection_roles(cmo33):
    info = classify(cmo33)
    assert info.missing_edge == (2, 0)
    # The d1 group is (d1, d2), d2 is d3, s1 is s1, and the s2 group is (s2, s3).
    assert info.roles == ((0, 1), 2, 3, (4, 5))


def test_project_state_example(cmo33):
    assert project_state(cmo33, [2, 1, 0, 3, 0, 0]).tolist() == [3, 0, 3, 0]


def test_project_arrival_cases(cmo33):
    # Atoms hitting s1 from a grouped demand map to the priority pair.
    assert project_arrival(cmo33, 0, 0) == (0, 0)
    assert project_arrival(cmo33, 1, 0) == (0, 0)
    # Atoms leaving from d3 map to the isolated demand.
    assert project_arrival(cmo33, 2, 1) == (1, 1)
    assert project_arrival(cmo33, 2, 2) == (1, 1)
    # The missing pair itself maps to the unmatched corner.
    assert project_arrival(cmo33, 2, 0) == (1, 0)
    # Everything else is the flexible pair.
    assert project_arrival(cmo33, 0, 1) == (0, 1)
    assert project_arrival(cmo33, 1, 2) == (0, 1)


def test_projection_additivity(cmo33):
    """Projecting q + e(a) equals projecting q plus the projected arrival."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        demand = rng.integers(0, 3, size=3)
        supply = rng.integers(0, 3, size=3)
        q = np.concatenate([demand, supply])
        for i in range(3):
            for j in range(3):
                e = np.zeros(6, dtype=int)
                e[i] += 1
                e[3 + j] += 1
                lhs = project_state(cmo33, q + e)
                ii, jj = project_arrival(cmo33, i, j)
                e_n = np.zeros(4, dtype=int)
                e_n[ii] += 1
                e_n[2 + jj] += 1
                assert np.array_equal(lhs, project_state(cmo33, q) + e_n)


def test_projected_law_sums_to_one(cmo33):
    arr = ArrivalDistribution(alpha=[0.5, 0.3, 0.2], beta=[0.3, 0.3, 0.4])
    law = projected_arrival_law(cmo33, arr)
    assert law.shape == (2, 2)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert law[1, 0] == pytest.approx(0.2 * 0.3)


def test_check_projected_cost(cmo33):
    costs = CostVector.from_mapping(
        cmo33, {"d1": 1, "d2": 1, "d3": 2, "s1": 3, "s2": 4, "s3": 4}
    )
    assert check_projected_cost(cmo33, costs, [1, 2, 3, 4])
    assert not check_projected_cost(cmo33, costs, [1, 2, 3, 5])
    uneven = CostVector.from_mapping(
        cmo33, {"d1": 1, "d2": 9, "d3": 2, "s1": 3, "s2": 4, "s3": 4}
    )
    assert not check_projected_cost(cmo33, uneven, [1, 2, 3, 4])


# ---- file format ----


def _valid_doc() -> dict:
    return {
        "demand": ["d1", "d2"],
        "supply": ["s1", "s2"],
        "edges": [["d1", "s1"], ["d1", "s2"], ["d2", "s2"]],
        "alpha": [0.6, 0.4],
        "beta": [0.4, 0.6],
        "costs": {"d1": 1, "d2": 2, "s1": 3, "s2": 4},
    }


def test_load_graph_roundtrip(tmp_path):
    import json

    path = tmp_path / "n.json"
    path.write_text(json.dumps(_valid_doc()))
    graph, arr, costs = load_graph(str(path))
    assert classify(graph).tag == N_SHAPED
    assert arr.alpha.tolist() == [0.6, 0.4]
    assert costs.vector.tolist() == [1.0, 2.0, 3.0, 4.0]
    graph2, arr2, costs2 = load_graph(_valid_doc())
    assert graph2 == graph
    assert np.array_equal(arr2.beta, arr.beta)
    assert np.array_equal(costs2.vector, costs.vector)


@pytest.mark.parametrize(
    "mutation, needle",
    [
        (lambda d: d.pop("alpha"), "alpha"),
        (lambda d: d.update(alpha=[0.6, 0.5]), "alpha"),
        (lambda d: d.update(edges=[["d1", "s1", "s2"]]), "edges"),
        (lambda d: d.update(edges="d1-s1"), "edges"),
        (lambda d: d.update(costs={"d1": 1}), "costs"),
        (lambda d: d.update(costs={**d["costs"], "d1": "cheap"}), "costs"),
        (lambda d: d.update(beta=[0.4, 0.3, 0.3]), "beta"),
        (lambda d: d.update(demand=["d1", 2]), "demand"),
    ],
)
def test_load_graph_rejects_malformed(mutation, needle):
    doc = _valid_doc()
    mutation(doc)
    with pytest.raises(ParseError, match=needle):
        load_graph(doc)


@pytest.mark.parametrize(
    "field, entries, where",
    [
        ("alpha", ["0.6", "0.4"], "'alpha'[0]"),
        ("beta", [0.4, True], "'beta'[1]"),
        ("beta", [0.4, None], "'beta'[1]"),
        ("costs", {"d1": 1.0, "d2": False, "s1": 1.0, "s2": 1.0}, "'costs'['d2']"),
    ],
    ids=["string-alpha", "bool-beta", "null-beta", "bool-cost"],
)
def test_rates_and_costs_must_be_json_numbers(field, entries, where):
    doc = _valid_doc()
    doc[field] = entries
    with pytest.raises(ParseError, match=re.escape(f"field {where} must be a number")):
        load_graph(doc)


def test_a_bool_rate_is_not_read_as_one():
    doc = {"demand": ["d1"], "supply": ["s1"], "edges": [["d1", "s1"]],
           "alpha": [True], "beta": [1.0], "costs": {"d1": 1.0, "s1": 1.0}}
    with pytest.raises(ParseError, match=re.escape("field 'alpha'[0] must be a number")):
        load_graph(doc)


@pytest.mark.parametrize(
    "mutation, needle",
    [
        (lambda d: d.update(alpha=[float("nan"), float("nan")]), "alpha"),
        (lambda d: d.update(beta=[0.5, float("nan")]), "beta"),
        (lambda d: d.update(costs={**d["costs"], "s2": float("nan")}), "costs"),
        (lambda d: d.update(costs={**d["costs"], "d1": float("inf")}), "costs"),
    ],
)
def test_load_graph_rejects_non_finite_numbers(tmp_path, mutation, needle):
    import json

    doc = _valid_doc()
    mutation(doc)
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # Python's json writes and reads NaN
    with pytest.raises(ParseError, match=f"{needle}.*finite"):
        load_graph(str(path))


def test_read_graph_document_returns_the_object_unvalidated(tmp_path):
    import json

    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"demand": ["d1"]}))
    assert read_graph_document(path) == {"demand": ["d1"]}
    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="must hold a JSON object"):
        read_graph_document(path)
    with pytest.raises(ParseError, match="must hold a JSON object"):
        load_graph(str(path))


def test_load_graph_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="valid JSON"):
        load_graph(str(path))
    with pytest.raises(ParseError, match="cannot read"):
        load_graph(str(tmp_path / "does_not_exist.json"))


# ---- state-vector positions ----


@st.composite
def connected_graphs(draw) -> MatchingGraph:
    """A connected graph of 1-4 classes per side: a random spanning tree
    plus random extra edges, with labels and edges in shuffled file order."""
    demand = draw(st.permutations([f"d{k}" for k in range(draw(st.integers(1, 4)))]))
    supply = draw(st.permutations([f"s{k}" for k in range(draw(st.integers(1, 4)))]))
    placed = {"d": [demand[0]], "s": [supply[0]]}
    edges = {(demand[0], supply[0])}
    for name in draw(st.permutations(demand[1:] + supply[1:])):
        side = name[0]
        other = draw(st.sampled_from(placed["s" if side == "d" else "d"]))
        edges.add((name, other) if side == "d" else (other, name))
        placed[side].append(name)
    edges |= draw(st.sets(st.sampled_from([(d, s) for d in demand for s in supply])))
    return MatchingGraph(tuple(demand), tuple(supply), tuple(draw(st.permutations(sorted(edges)))))


@given(graph=connected_graphs())
@settings(max_examples=60, deadline=None)
def test_positions_match_a_construction_from_the_labels(graph):
    labels = list(graph.demand_nodes) + list(graph.supply_nodes)
    assert graph.edge_ends == tuple((labels.index(d), labels.index(s)) for d, s in graph.edges)
    assert graph.atom_ends == tuple(
        (labels.index(d), labels.index(s)) for d in graph.demand_nodes for s in graph.supply_nodes
    )
    assert graph.degrees == tuple(sum(name in edge for edge in graph.edges) for name in labels)
    columns = [graph.atom_index(atom) for atom in graph.arrival_atoms]
    assert columns == list(range(graph.n_d * graph.n_s))
    assert graph.atom_index((np.int64(graph.n_d - 1), np.int8(0))) == (graph.n_d - 1) * graph.n_s


@st.composite
def role_graphs(draw) -> tuple[MatchingGraph, str, tuple]:
    """An N graph, a W graph or a complete-minus-one graph of 3x3, 2x3 or
    3x2 classes, with labels that name roles, in shuffled file order; with
    its tag and its roles built from the labels."""
    shape = draw(st.sampled_from(["N", "W", (3, 3), (2, 3), (3, 2)]))
    if shape == "W":
        edges = [("A", "U"), ("M", "U"), ("M", "V"), ("B", "V")]
        demand, supply = draw(st.permutations("AMB")), draw(st.permutations("UV"))
    else:
        n_d, n_s = (2, 2) if shape == "N" else shape
        # D2 and S1 are the ends of the missing edge; D1* and S2* the groups.
        demand = draw(st.permutations(["D2"] + [f"D1{k}" for k in range(n_d - 1)]))
        supply = draw(st.permutations(["S1"] + [f"S2{k}" for k in range(n_s - 1)]))
        edges = [(d, s) for d in demand for s in supply if (d, s) != ("D2", "S1")]
    graph = MatchingGraph(tuple(demand), tuple(supply), tuple(draw(st.permutations(edges))))
    at = (list(demand) + list(supply)).index
    if shape == "W":
        leaf = {"U": "A", "V": "B"}
        first, second = supply
        return graph, W_SHAPED, (at(leaf[first]), at("M"), at(leaf[second]), at(first), at(second))
    d1 = tuple(at(name) for name in demand if name != "D2")
    s2 = tuple(at(name) for name in supply if name != "S1")
    tag = N_SHAPED if shape == "N" else COMPLETE_MINUS_ONE
    return graph, tag, (d1, at("D2"), at("S1"), s2)


@given(case=role_graphs())
@settings(max_examples=80, deadline=None)
def test_roles_match_a_construction_from_the_labels(case):
    graph, tag, roles = case
    info = classify(graph)
    assert (info.tag, info.roles) == (tag, roles)
    # The oracles derive the roles on their own, one tuple per role.
    assert tuple(reference_roles(graph).values()) == tuple(
        r if isinstance(r, tuple) else (r,) for r in roles
    )


@pytest.mark.parametrize("atom, message", BAD_ATOMS[1:])
def test_project_arrival_rejects_non_integer_atoms(atom, message):
    graph = make_n_graph()
    with pytest.raises(ValueError, match=message):
        project_arrival(graph, *atom)
    with pytest.raises(ValueError, match=r"atom out of range: \(2, 0\) is not an arrival atom"):
        project_arrival(graph, 2, 0)


@pytest.mark.parametrize("field, entries, message", OTHER_ARRIVALS)
def test_arrivals_sized_for_another_graph_are_rejected(field, entries, message):
    graph = make_n_graph()
    arrivals, _ = n_inputs(field, entries)
    with pytest.raises(ValueError, match=message):
        check_stability(graph, arrivals)
    with pytest.raises(ValueError, match=message):
        projected_arrival_law(graph, arrivals)
