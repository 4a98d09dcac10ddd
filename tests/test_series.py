"""Localization series for rubber vertices and the rigid factor, plus the
t^0 assembly over a whole gluing graph."""

import pytest
import sympy as sp

from tautdr import (
    BipartiteGraph,
    EnumerationBounds,
    LaurentSeries,
    RelativeVertex,
    RubberVertex,
    SymPoly,
    TopologicalType,
    TruncationError,
    assemble_t0,
    c_gamma0,
    c_gamma_infty,
    enumerate_bipartite,
    rubber_vertex_series,
)
from tautdr import series

from oracles import brute_t0, t0_json_as_sympy


def psi(power=1):
    return SymPoly.symbol(psi=power)


def psi_inf(vertex=0):
    return SymPoly.symbol(psi_inf=((vertex, 1),))


# ---------------------------------------------------------------------------
# Monomials and series algebra


def test_monomial_make_merges_repeated_keys():
    k = ("e", 0)
    assert series.SymMonomial.make(psibar=((k, 1), (k, 1))) == series.SymMonomial.make(
        psibar=((k, 2),)
    )
    assert series.SymMonomial.make(evd=((k, 1), (k, -1))) == series.SymMonomial.make()
    assert series.SymMonomial.make(psi_inf=((0, 1), (1, 2), (0, 1))) == series.SymMonomial.make(
        psi_inf=((1, 2), (0, 2))
    )


def test_truncated_zero_keeps_its_window():
    # a truncated zero is zero only on its window; the product is known
    # down to that window plus the other factor's top exponent
    product = LaurentSeries({}, -2) * c_gamma_infty(2)
    assert product.coefficient(-2) == SymPoly.zero()
    for exp in (-3, -9):
        with pytest.raises(TruncationError):
            product.coefficient(exp)
    both = LaurentSeries({}, -2) * LaurentSeries({}, -1)
    assert both.coefficient(-3) == SymPoly.zero()
    with pytest.raises(TruncationError):
        both.coefficient(-4)
    exact = LaurentSeries({}) * c_gamma_infty(2)
    assert exact.coefficient(-9) == SymPoly.zero()


# ---------------------------------------------------------------------------
# The rigid-side factor


def test_rigid_factor_truncation_zero():
    s = c_gamma_infty(0)
    assert s.coefficient(0) == SymPoly.one()
    assert s.coefficient(1) == SymPoly.zero()  # bounded above
    with pytest.raises(TruncationError):
        s.coefficient(-1)


def test_rigid_factor_alternating_powers():
    s = c_gamma_infty(2)
    assert s.coefficient(0) == SymPoly.one()
    assert s.coefficient(-1) == psi().scale(-1)
    assert s.coefficient(-2) == psi(2)


def test_rigid_factor_inverts_its_denominator():
    # (t + Psi)/t times the series recovers 1 on the valid window
    factor = LaurentSeries({0: SymPoly.one(), -1: psi()})
    product = factor * c_gamma_infty(5)
    assert product.coefficient(0) == SymPoly.one()
    for k in range(1, 6):
        assert product.coefficient(-k) == SymPoly.zero()


# ---------------------------------------------------------------------------
# Rubber-vertex series


def test_single_node_root_leading_terms():
    for d in (1, 2, 3):
        s = c_gamma0(0, [(0, d)], [], truncation=3)
        key = ("e", 0)
        # top power: rho_inf - 1 - #denominators = -1
        assert s.coefficient(0) == SymPoly.zero()
        assert s.coefficient(-1) == SymPoly.scalar(d)
        assert s.coefficient(-2) == psi_inf().scale(d)


def test_marking_only_vertex_reads_numerator_directly():
    # no node-type roots: the denominator (default set) is empty, so the
    # numerator coefficients appear unobstructed at t^(rho_inf - 1 - l)
    s = c_gamma0(0, [], [(7, 2), (8, 1)], truncation=2)
    assert s.coefficient(1) == SymPoly.one()  # c(0) = 1
    # default sigma set ignores marking-type roots: c(1) is the vertex symbol
    assert s.coefficient(0) == psi_inf()


def test_sigma_over_both_types_subtracts_marking_terms():
    s = c_gamma0(0, [], [(7, 2), (8, 1)], truncation=2, sigma_set="infty")
    sigma1 = (
        SymPoly.symbol(psibar=((("m", 7), 1),)).scale(2)
        - SymPoly.symbol(evd=((("m", 7), 1),))
        + SymPoly.symbol(psibar=((("m", 8), 1),))
        - SymPoly.symbol(evd=((("m", 8), 1),))
    )
    assert s.coefficient(1) == SymPoly.one()
    assert s.coefficient(0) == psi_inf() - sigma1


def test_genus_shifts_the_numerator():
    # numerator terms start at l = genus but the top power stays rho_inf-1
    flat = c_gamma0(0, [], [(3, 1), (4, 1)], truncation=1)
    bumped = c_gamma0(1, [], [(3, 1), (4, 1)], truncation=1)
    assert flat.coefficient(1) == SymPoly.one()
    assert bumped.coefficient(1) == SymPoly.one()


def test_bad_half_edge_set_names_rejected():
    with pytest.raises(NotImplementedError):
        c_gamma0(0, [(0, 1)], [], truncation=1, sigma_set="marking")
    with pytest.raises(NotImplementedError):
        c_gamma0(0, [(0, 1)], [], truncation=1, denominator_set="weird")


def test_no_infinity_roots_has_no_window():
    with pytest.raises(TruncationError):
        c_gamma0(0, [], [], truncation=0)


def test_degrees_must_be_positive():
    with pytest.raises(ValueError):
        c_gamma0(0, [(0, 0)], [], truncation=1)


def test_below_truncation_raises():
    s = c_gamma0(0, [(0, 2)], [], truncation=2)
    with pytest.raises(TruncationError):
        s.coefficient(-4)


@pytest.mark.parametrize(
    "node_edges, marking_edges",
    [([(0, 2)], []), ([], [(7, 2), (8, 1)]), ([(0, 1), (1, 3)], [(5, 2)])],
)
@pytest.mark.parametrize("sets", [("node", "node"), ("infty", "infty")])
def test_deeper_truncation_only_adds_lower_terms(node_edges, marking_edges, sets):
    for k in range(4):
        try:
            shallow = c_gamma0(1, node_edges, marking_edges, k, 0, *sets)
        except TruncationError:
            continue  # the window lies above the series
        deep = c_gamma0(1, node_edges, marking_edges, k + 3, 0, *sets)
        for exp in range(-k, deep.max_exp() + 1):
            assert shallow.coefficient(exp) == deep.coefficient(exp)
        assert not deep.coefficient(-k - 1).is_zero()
        with pytest.raises(TruncationError):
            shallow.coefficient(-k - 1)


# ---------------------------------------------------------------------------
# Whole-graph t^0 extraction


def graph_31():
    return BipartiteGraph(
        (RubberVertex(0, (), ((1, 3),), ((2, -1),)),),
        (RelativeVertex(0, 2),),
        ((0, 0, 2),),
    )


def rubber_only_graph():
    return BipartiteGraph(
        (RubberVertex(0, (1,), ((2, 5),), ((3, -5),)),), ()
    )


def rigid_only_graph():
    return BipartiteGraph((), (RelativeVertex(1, 0, (1,)),))


def deep_rubber_graph():
    # the rubber factor's top term is t^1, so t^0 needs the rigid factor's
    # t^-1 term: truncation 0 is too shallow
    return BipartiteGraph(
        (RubberVertex(0, (), ((1, 3),), ((2, -1), (3, -1))),),
        (RelativeVertex(0, 1),),
        ((0, 0, 1),),
    )


def two_rubber_graphs():
    one_rigid = BipartiteGraph(
        (
            RubberVertex(0, (), ((1, 2),), ((3, -1),)),
            RubberVertex(0, (), ((2, 2),), ((4, -1),)),
        ),
        (RelativeVertex(0, 2),),
        ((0, 0, 1), (1, 0, 1)),
    )
    # a rubber vertex with two marking-type roots: t^0 needs depth 1
    deep = BipartiteGraph(
        (
            RubberVertex(0, (), ((1, 3),), ((3, -1), (4, -1))),
            RubberVertex(0, (), ((2, 2),), ((5, -1),)),
        ),
        (RelativeVertex(0, 2),),
        ((0, 0, 1), (1, 0, 1)),
    )
    cycle = BipartiteGraph(
        (
            RubberVertex(0, (), ((1, 3),), ((3, -1),)),
            RubberVertex(0, (), ((2, 3),), ((4, -1),)),
        ),
        (RelativeVertex(0, 2), RelativeVertex(0, 2)),
        ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)),
    )
    return [one_rigid, deep, cycle]


def capped_universe_sample():
    """Every 13th graph of the capped universe of acceptance check 9."""
    contact_vectors = [
        (), (1,), (2,), (1, 1), (1, -1), (-1, 1), (2, -1), (-1, 2), (2, -2), (3, -1),
    ]
    bounds = EnumerationBounds(
        max_rubber_vertices=2, max_rigid_vertices=2, max_edges=3, max_edge_degree=3
    )
    graphs = [
        gr
        for g in (0, 1, 2)
        for n in (0, 1)
        for mu in contact_vectors
        if 0 <= sum(mu) <= 2
        for gr, _aut in enumerate_bipartite(
            TopologicalType(g, n, sum(mu), len(mu), mu), bounds=bounds
        )
    ]
    return graphs[::13]


ALL_SETS = [(s, d) for s in ("node", "infty") for d in ("node", "infty")]


def _plain_t0(graph, truncation, sigma_set, denominator_set):
    """t^0 of the product of every factor expanded to the same depth."""
    product = LaurentSeries.one()
    if graph.side_inf:
        product = product * c_gamma_infty(truncation)
    for i in range(len(graph.side0)):
        product = product * rubber_vertex_series(
            graph, i, truncation, sigma_set, denominator_set
        )
    return product.coefficient(0)


def test_pruning_never_widens_a_window():
    # the pruned product must be exactly as deep as the plain one: it raises
    # at the same requested depths and agrees with it everywhere else
    graphs = [graph_31(), rubber_only_graph(), rigid_only_graph()]
    graphs += [deep_rubber_graph()] + two_rubber_graphs()
    raised = 0
    for graph in graphs:
        for sets in ALL_SETS:
            for k in range(5):
                try:
                    expected = _plain_t0(graph, k, *sets)
                except TruncationError:
                    raised += 1
                    with pytest.raises(TruncationError):
                        series._assemble_at(graph, k, *sets)
                    with pytest.raises(TruncationError):
                        assemble_t0(graph, *sets, truncation=k)
                    continue
                assert series._assemble_at(graph, k, *sets) == expected
                assert assemble_t0(graph, *sets, truncation=k).poly == expected
    assert raised  # some requested depth was too shallow


def test_assemble_matches_brute_oracle():
    graphs = [graph_31(), rubber_only_graph(), rigid_only_graph()]
    graphs += [deep_rubber_graph()] + two_rubber_graphs() + capped_universe_sample()
    assert len(graphs) == 28
    nonzero = 0
    for graph in graphs:
        for sets in ALL_SETS:
            brute = brute_t0(graph, *sets)
            lib = assemble_t0(graph, *sets).to_json_obj(single_rubber=False)
            assert sp.expand(brute - t0_json_as_sympy(lib)) == 0, (graph, sets)
            nonzero += brute != 0
    assert nonzero >= 20


def test_assemble_two_series_product_oracle():
    out = assemble_t0(graph_31())
    assert out.poly == SymPoly.scalar(2)
    assert out.rubber_vertices == 1


def test_assemble_rubber_only():
    out = assemble_t0(rubber_only_graph())
    assert out.poly == SymPoly.one()


def test_assemble_empty_rubber_side():
    out = assemble_t0(rigid_only_graph())
    assert out.poly == SymPoly.one()
    assert out.rubber_vertices == 0


def test_assembly_stable_under_truncation_doubling():
    for graph in (graph_31(), rubber_only_graph(), rigid_only_graph()):
        base = assemble_t0(graph)
        doubled = assemble_t0(graph, truncation=2 * base.truncation + 4)
        assert base.poly == doubled.poly


def test_assembly_with_sigma_over_both_types():
    out = assemble_t0(graph_31(), sigma_set="infty")
    assert out.sigma_set == "infty"
    assert out.poly == SymPoly.scalar(2)


def test_rubber_vertex_series_reads_graph_data():
    graph = graph_31()
    s = rubber_vertex_series(graph, 0, 3)
    direct = c_gamma0(0, [(0, 2)], [(2, 1)], 3)
    for exp in (0, -1, -2, -3):
        assert s.coefficient(exp) == direct.coefficient(exp)


def test_assembled_json_shape():
    obj = assemble_t0(graph_31()).to_json_obj()
    assert obj["sigma_set"] == "node"
    assert obj["denominator_set"] == "node"
    (term,) = obj["monomials"]
    assert term["coeff"] == "2/1"
    assert term["Psi"] == 0 and term["Psi_inf"] == 0
    assert term["psibar"] == {} and term["evD"] == {}


def test_series_addition_aligns_windows():
    a = c_gamma_infty(3)
    b = c_gamma_infty(1)
    total = a + b
    assert total.coefficient(0) == SymPoly.scalar(2)
    assert total.coefficient(-1) == psi().scale(-2)
    with pytest.raises(TruncationError):
        total.coefficient(-2)  # b is only valid down to t^-1
