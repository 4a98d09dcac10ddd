"""Stable-graph enumeration, canonicalization, automorphisms, weightings."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautdr import (
    ComplexityBoundError,
    DecoratedStratum,
    StableGraph,
    automorphism_count,
    enumerate_stable_graphs,
    enumerate_weightings,
    trivial_graph,
)
from tautdr.stable_graphs import _compositions
from tautdr.weightsums import weighting_power_sums

from oracles import (
    brute_graph_automorphisms,
    brute_stable_graphs,
    brute_weighting_sum,
    stable_graph_key,
)

CENSUS_COUNTS = {
    (0, 3): 1,
    (0, 4): 4,
    (0, 5): 26,
    (1, 1): 2,
    (1, 2): 5,
    (2, 0): 7,
}


@pytest.mark.parametrize("g,n", sorted(CENSUS_COUNTS))
def test_census_matches_brute_force(g, n):
    graphs = enumerate_stable_graphs(g, n)
    assert len(graphs) == CENSUS_COUNTS[(g, n)]
    assert len({stable_graph_key(gr) for gr in graphs}) == len(graphs)
    assert {stable_graph_key(gr) for gr in graphs} == brute_stable_graphs(g, n)


# Larger censuses, known independently (the brute oracle is too slow here).
DEGENERATION_CENSUS_COUNTS = {(1, 4): 163, (2, 2): 75, (3, 1): 181, (2, 3): 555}


@pytest.mark.parametrize("g,n", sorted(DEGENERATION_CENSUS_COUNTS))
def test_census_counts(g, n):
    graphs = enumerate_stable_graphs(g, n)
    assert len(graphs) == DEGENERATION_CENSUS_COUNTS[(g, n)]
    assert len(set(graphs)) == len(graphs)
    for gr in graphs:
        assert gr == gr.canonical()
        assert (gr.genus, gr.n_markings) == (g, n)


@pytest.mark.parametrize("g,n", [(1, 4), (2, 2)])
def test_census_is_closed_under_contraction(g, n):
    census = set(enumerate_stable_graphs(g, n))
    for gr in census:
        for e in range(gr.n_edges):
            assert gr.contract({e})[0].canonical() in census


def _relabelled_stratum(stratum, sigma, edge_order, flip_loops):
    """The same decorated stratum built afresh with vertex v renamed sigma[v],
    the edges listed in ``edge_order`` before the constructor's sort, and the
    two sides of every loop swapped when ``flip_loops`` is set."""
    gr = stratum.graph
    genera = [0] * gr.n_vertices
    kappa = [()] * gr.n_vertices
    for v in range(gr.n_vertices):
        genera[sigma[v]] = gr.genera[v]
        kappa[sigma[v]] = stratum.kappa[v]
    records = []
    for e in edge_order:
        (u, w), (p, q) = gr.edges[e], stratum.edge_psi[e]
        a, b = sigma[u], sigma[w]
        if a > b or (a == b and flip_loops):
            a, b, p, q = b, a, q, p
        records.append((a, b, p, q))
    records.sort(key=lambda rec: rec[:2])  # stable: keeps parallel edges' order
    graph = StableGraph(
        tuple(genera),
        tuple(sigma[v] for v in gr.legs),
        tuple((a, b) for a, b, _p, _q in records),
    )
    edge_psi = tuple((p, q) for _a, _b, p, q in records)
    return DecoratedStratum(graph, stratum.leg_psi, edge_psi, tuple(kappa))


@pytest.mark.parametrize("g,n", [(1, 3), (2, 1)])
def test_canonical_form_ignores_vertex_labels(g, n):
    for gr in enumerate_stable_graphs(g, n):
        plain = DecoratedStratum(
            gr, (0,) * n, ((0, 0),) * gr.n_edges, ((),) * gr.n_vertices
        )
        for sigma in itertools.permutations(range(gr.n_vertices)):
            moved = _relabelled_stratum(plain, sigma, range(gr.n_edges), False)
            assert moved.graph.canonical() == gr


SMALL_CENSUS = enumerate_stable_graphs(1, 3) + enumerate_stable_graphs(2, 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decorated_canonical_form_ignores_vertex_labels(data):
    gr = data.draw(st.sampled_from(SMALL_CENSUS))
    exponent = st.integers(0, 2)
    stratum = DecoratedStratum(
        gr,
        tuple(data.draw(exponent) for _ in gr.legs),
        tuple((data.draw(exponent), data.draw(exponent)) for _ in gr.edges),
        tuple(
            tuple(data.draw(st.lists(st.integers(1, 2), max_size=2)))
            for _ in gr.genera
        ),
    )
    sigma = data.draw(st.permutations(range(gr.n_vertices)))
    edge_order = data.draw(st.permutations(range(gr.n_edges)))
    moved = _relabelled_stratum(stratum, sigma, edge_order, data.draw(st.booleans()))
    assert moved.canonical() == stratum.canonical()


def test_enumeration_is_deterministic_and_canonical():
    first = enumerate_stable_graphs(1, 2)
    second = enumerate_stable_graphs(1, 2)
    assert first == second
    for gr in first:
        assert gr == gr.canonical()


@pytest.mark.parametrize("g,n", [(0, 4), (1, 1), (1, 2), (2, 0)])
def test_automorphisms_match_half_edge_brute_force(g, n):
    for gr in enumerate_stable_graphs(g, n):
        assert automorphism_count(gr) == brute_graph_automorphisms(gr)


def test_theta_graph_automorphisms():
    theta = StableGraph((0, 0), (), ((0, 1), (0, 1), (0, 1)))
    assert automorphism_count(theta) == 12


def test_constructor_rejections():
    with pytest.raises(ValueError):
        StableGraph((0,), (0,), ())  # unstable: one leg on a genus-0 vertex
    with pytest.raises(ValueError):
        StableGraph((-1,), (0, 0, 0), ())
    with pytest.raises(ValueError):
        StableGraph((0, 0), (0, 0, 0), ())  # disconnected second vertex
    with pytest.raises(ValueError):
        StableGraph((1, 1), (), ((0, 2),))  # edge endpoint out of range


def test_trivial_graph():
    gr = trivial_graph(2, 1)
    assert gr.genera == (2,)
    assert gr.edges == ()
    assert automorphism_count(gr) == 1
    with pytest.raises(ValueError):
        trivial_graph(0, 2)


def test_enumeration_guardrails():
    with pytest.raises(ValueError):
        enumerate_stable_graphs(0, 2)
    with pytest.raises(ValueError):
        enumerate_stable_graphs(-1, 5)
    with pytest.raises(ComplexityBoundError):
        enumerate_stable_graphs(2, 6)  # dimension 9 > default bound 8
    # explicit opt-in overrides the bound
    assert enumerate_stable_graphs(0, 4, complexity_bound=1)


def _census_total_genus(gr):
    return sum(gr.genera) + len(gr.edges) - len(gr.genera) + 1


@pytest.mark.parametrize("g,n", [(1, 2), (2, 0)])
def test_census_graphs_have_right_genus(g, n):
    for gr in enumerate_stable_graphs(g, n):
        assert _census_total_genus(gr) == g


# ---------------------------------------------------------------------------
# Weightings mod r


def test_weighting_count_is_r_to_h1():
    for g, n, legs in [(1, 1, (0,)), (1, 2, (4, -4)), (2, 0, ())]:
        for gr in enumerate_stable_graphs(g, n):
            h1 = len(gr.edges) - len(gr.genera) + 1
            for r in (2, 3, 5, 7):
                ws = enumerate_weightings(gr, r, legs)
                assert len(ws) == r**h1


def test_weightings_empty_when_legs_do_not_balance():
    gr = trivial_graph(1, 2)
    assert enumerate_weightings(gr, 5, (1, 1)) == []
    assert weighting_power_sums(gr, (1, 1), 5, [()])[()] == 0


def test_weightings_satisfy_local_conditions():
    gr = StableGraph((0, 1), (0, 0), ((0, 1), (0, 1)))
    r = 7
    legs = (2, -2)
    seen = set()
    for w in enumerate_weightings(gr, r, legs):
        assert w[1] == 2 and w[2] == (-2) % r
        for e in range(len(gr.edges)):
            h1_id, h2_id = gr.edge_half_ids(e)
            assert (w[h1_id] + w[h2_id]) % r == 0
        seen.add(tuple(sorted(w.items())))
    assert len(seen) == r  # h1 = 1, all distinct


@pytest.mark.parametrize(
    "genera,legs_at,edges,leg_values",
    [
        ((0,), (0, 0, 0, 0), (), (1, 2, -3, 0)),
        ((1,), (0,), ((0, 0),), (0,)),
        ((0, 1), (0, 0), ((0, 1),), (3, -3)),
        ((0, 0), (0, 1), ((0, 1), (0, 1)), (2, -2)),
        ((0, 0), (), ((0, 1), (0, 1), (0, 1)), ()),
        ((1,), (), ((0, 0),), ()),
    ],
)
def test_weighting_power_sums_match_brute_force(genera, legs_at, edges, leg_values):
    gr = StableGraph(genera, legs_at, edges)
    n_edges = len(edges)
    profiles = [
        tuple(p)
        for p in [
            (0,) * n_edges,
            (1,) * n_edges,
            tuple(range(1, n_edges + 1)),
            (2,) * n_edges,
        ]
    ]
    for r in (2, 3, 5, 8, 11):
        sums = weighting_power_sums(gr, leg_values, r, profiles)
        for profile in profiles:
            assert sums[profile] == brute_weighting_sum(gr, leg_values, r, profile), (
                genera,
                edges,
                r,
                profile,
            )


def test_weighting_sums_are_polynomial_in_r():
    # For the two-edge banana the normalized sums should continue to agree
    # with brute force after dividing by the weighting count.
    gr = StableGraph((0, 0), (0, 1), ((0, 1), (0, 1)), )
    profile = (1, 1)
    for r in (3, 5, 7, 9):
        total = weighting_power_sums(gr, (1, -1), r, [profile])[profile]
        assert total == brute_weighting_sum(gr, (1, -1), r, profile)
        assert total % 1 == 0 if isinstance(total, int) else total.denominator == 1



def test_compositions_match_product_filter():
    # same tuples in the same (lexicographic) order as a brute-force filter,
    # and the positive-parts form is the nonnegative one shifted by one
    for total in range(6):
        for parts in range(5):
            brute = [
                c
                for c in itertools.product(range(total + 1), repeat=parts)
                if sum(c) == total
            ]
            assert list(_compositions(total, parts)) == brute
            shifted = [
                tuple(j + 1 for j in c) for c in _compositions(total - parts, parts)
            ]
            assert shifted == [c for c in brute if all(c)]
