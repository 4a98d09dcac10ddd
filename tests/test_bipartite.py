"""Two-sided gluing graphs: validation, enumeration, counts, invariants."""

from collections import Counter

import pytest

from tautdr import (
    BipartiteGraph,
    EnumerationBounds,
    RelativeVertex,
    RubberVertex,
    TopologicalType,
    enumerate_bipartite,
    genus_of,
    rho_minus,
)

from oracles import (
    bipartite_canonical_key,
    bipartite_raw,
    brute_bipartite_graphs,
)


def rubber(genus, legs=(), zero=(), neg=()):
    return RubberVertex(genus, tuple(legs), tuple(zero), tuple(neg))


def rigid(genus, degree, legs=(), marking=()):
    return RelativeVertex(genus, degree, tuple(legs), tuple(marking))


# ---------------------------------------------------------------------------
# Construction and validation


def test_rubber_only_graph_is_valid():
    gr = BipartiteGraph(
        (rubber(0, legs=(1,), zero=((2, 5),), neg=((3, -5),)),), ()
    )
    assert genus_of(gr) == 0
    assert gr.topological_type() == TopologicalType(0, 1, 0, 2, (5, -5))
    assert gr.automorphism_count() == 1


def test_two_sided_graph_and_genus():
    gr = BipartiteGraph(
        (rubber(0, zero=((1, 3),), neg=((2, -1),)),),
        (rigid(0, 2),),
        ((0, 0, 2),),
    )
    assert genus_of(gr) == 0
    assert gr.first_betti == 0
    assert gr.topological_type() == TopologicalType(0, 0, 2, 2, (3, -1))


def test_loop_contributes_to_genus():
    gr = BipartiteGraph(
        (rubber(0, zero=((1, 2),)),),
        (rigid(0, 2),),
        ((0, 0, 1), (0, 0, 1)),
    )
    assert gr.first_betti == 1
    assert genus_of(gr) == 1
    # the two parallel degree-1 edges can be swapped
    assert gr.automorphism_count() == 2


def test_edge_degree_must_be_positive():
    with pytest.raises(ValueError):
        BipartiteGraph(
            (rubber(0, zero=((1, 2),)),),
            (rigid(0, 2),),
            ((0, 0, 0), (0, 0, 2)),
        )


def test_rubber_needs_zero_end_contact():
    with pytest.raises(ValueError):
        BipartiteGraph((rubber(2),), ())
    with pytest.raises(ValueError):
        BipartiteGraph(
            (rubber(1, neg=((1, -2),)),),
            (rigid(0, 0),),
            (),
        )


def test_rubber_needs_infinity_end_contact():
    with pytest.raises(ValueError):
        BipartiteGraph((rubber(1, zero=((1, 2),)),), ())


def test_balance_is_enforced():
    with pytest.raises(ValueError):
        BipartiteGraph(
            (rubber(0, zero=((1, 3),), neg=((2, -1),)),),
            (rigid(0, 2),),
            ((0, 0, 1),),  # rubber balance needs total edge degree 2
        )
    with pytest.raises(ValueError):
        BipartiteGraph(
            (rubber(0, zero=((1, 3),), neg=((2, -1),)),),
            (rigid(0, 1),),  # rigid degree must be 2
            ((0, 0, 2),),
        )


def test_stability_is_enforced():
    # a trivial cylinder: one zero root, one negative root, genus 0
    with pytest.raises(ValueError):
        BipartiteGraph((rubber(0, zero=((1, 1),), neg=((2, -1),)),), ())
    # degree-0 rigid vertex with too few special points
    with pytest.raises(ValueError):
        BipartiteGraph(
            (rubber(0, zero=((1, 1), (2, 1))),),
            (rigid(0, 0),),
            ((0, 0, 1), (0, 0, 1)),
        )


def test_connectivity_is_enforced():
    with pytest.raises(ValueError):
        BipartiteGraph(
            (rubber(0, legs=(1, 2), zero=((3, 1),), neg=((4, -1),)),),
            (rigid(1, 0, legs=(5,)),),
            (),
        )


def test_weight_signs_are_enforced():
    with pytest.raises(ValueError):
        RubberVertex(0, (), ((1, -2),), ())
    with pytest.raises(ValueError):
        RubberVertex(0, (), (), ((1, 2),))
    with pytest.raises(ValueError):
        RelativeVertex(0, 1, (), ((1, -1),))
    with pytest.raises(ValueError):
        RelativeVertex(0, -1)


# ---------------------------------------------------------------------------
# rho_minus


def test_rho_minus_counts_negative_orders():
    assert rho_minus((3, -1), 10) == 1
    assert rho_minus((2, 2), 10) == 0
    assert rho_minus((-1, -2, 3), 100) == 2
    assert rho_minus((), 5) == 0


def test_rho_minus_requires_large_modulus():
    with pytest.raises(ValueError):
        rho_minus((3, -1), 3)
    with pytest.raises(ValueError):
        rho_minus((2, 0), 10)


# ---------------------------------------------------------------------------
# Enumeration


FROZEN_COUNTS = {
    (0, 0, 2, 2, (3, -1)): 2,
    (0, 0, 1, 1, (1,)): 1,
    (1, 0, 1, 1, (1,)): 2,
    (0, 1, 0, 2, (1, -1)): 1,
    (1, 1, 0, 0, ()): 1,
    (2, 0, 0, 2, (2, -2)): 1,
    (1, 0, 2, 2, (1, 1)): 8,
}


@pytest.mark.parametrize("gamma", sorted(FROZEN_COUNTS, key=repr))
def test_enumeration_counts(gamma):
    pairs = enumerate_bipartite(TopologicalType(*gamma))
    assert len(pairs) == FROZEN_COUNTS[gamma]
    g = gamma[0]
    for gr, aut in pairs:
        assert genus_of(gr) == g
        assert gr.topological_type() == TopologicalType(*gamma)
        assert aut >= 1


def _library_census(gamma, bounds=None):
    lib = {}
    for gr, aut in enumerate_bipartite(TopologicalType(*gamma), bounds):
        key = bipartite_canonical_key(*bipartite_raw(gr))
        assert key not in lib  # no isomorphic duplicates
        lib[key] = aut
    return lib


def test_enumeration_matches_brute_force_spot_checks():
    for gamma in [
        (0, 0, 2, 2, (3, -1)),
        (1, 0, 2, 2, (1, 1)),
        (2, 1, 1, 2, (2, -1)),
        # two legs, which may sit on interchangeable vertices
        (1, 2, 1, 1, (1,)),
        (0, 2, 1, 2, (2, -1)),
    ]:
        assert _library_census(gamma) == brute_bipartite_graphs(*gamma)


@pytest.mark.parametrize("caps", [(2, 0, 3, 3), (0, 2, 3, 3), (2, 2, 0, 3), (1, 1, 3, 0)])
def test_zero_caps_match_brute_force(caps):
    # a cap of 0 forbids that kind of vertex or edge; it is not "no cap"
    for gamma in [(1, 0, 2, 2, (1, 1)), (1, 0, 1, 1, (1,))]:
        assert _library_census(gamma, EnumerationBounds(*caps)) == (
            brute_bipartite_graphs(*gamma, *caps)
        )


def test_negative_caps_are_rejected():
    for field in (
        "max_rubber_vertices",
        "max_rigid_vertices",
        "max_edges",
        "max_edge_degree",
    ):
        with pytest.raises(ValueError):
            EnumerationBounds(**{field: -1})


def test_enumeration_builds_only_connected_candidates(monkeypatch):
    # connectivity is settled on the edge list, before legs and genera are
    # placed, so no disconnected graph reaches the constructor
    built = Counter()
    post_init = BipartiteGraph.__post_init__

    def counting(self):
        built["all"] += 1
        try:
            post_init(self)
        except ValueError:
            if not self._is_connected():
                built["disconnected"] += 1
            raise

    monkeypatch.setattr(BipartiteGraph, "__post_init__", counting)
    caps = EnumerationBounds(2, 2, 3, 3)
    contact_vectors = [
        (), (1,), (2,), (1, 1), (1, -1), (-1, 1), (2, -1), (-1, 2), (2, -2), (3, -1)
    ]
    for g in (0, 1, 2):
        for n in (0, 1):
            for mu in contact_vectors:
                if 0 <= sum(mu) <= 2:
                    enumerate_bipartite(TopologicalType(g, n, sum(mu), len(mu), mu), caps)
    assert built["all"] > 0
    assert built["disconnected"] == 0


def test_enumeration_respects_explicit_bounds():
    gamma = TopologicalType(1, 0, 2, 2, (1, 1))
    full = enumerate_bipartite(gamma)
    capped = enumerate_bipartite(
        gamma, EnumerationBounds(max_rubber_vertices=1, max_rigid_vertices=1)
    )
    assert len(capped) < len(full)
    capped_keys = {bipartite_canonical_key(*bipartite_raw(gr)) for gr, _ in capped}
    full_keys = {bipartite_canonical_key(*bipartite_raw(gr)) for gr, _ in full}
    assert capped_keys <= full_keys


def test_enumeration_requires_consistent_degree():
    with pytest.raises(ValueError):
        enumerate_bipartite(TopologicalType(0, 0, 1, 2, (3, -1)))


def test_json_roundtrip():
    for gr, _ in enumerate_bipartite(TopologicalType(0, 0, 2, 2, (3, -1))):
        again = BipartiteGraph.from_json_obj(gr.to_json_obj())
        assert again == gr


def test_enumeration_is_deterministic():
    gamma = TopologicalType(1, 0, 2, 2, (1, 1))
    assert enumerate_bipartite(gamma) == enumerate_bipartite(gamma)
