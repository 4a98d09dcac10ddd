"""Exact intersection numbers and tautological-class arithmetic."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from itertools import product as iproduct
from math import factorial

import pytest

from tautdr import (
    StableGraph,
    TautClass,
    fundamental,
    kappa_class,
    kappa_psi_integral,
    psi_class,
    psi_integral,
    stratum_class,
    trivial_graph,
)
from tautdr.intersection import (
    ProductCapabilityError,
    _contraction_structures,
    forgetful_pullback,
    generators_of_degree,
)
from tautdr.stable_graphs import automorphism_count, enumerate_stable_graphs

from oracles import psi_integral_genus0


def _exponent_tuples(n, total):
    """All tuples of n nonnegative integers summing to total."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exponent_tuples(n - 1, total - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Psi integrals


def test_point_class_and_elliptic_tail():
    assert psi_integral(0, (0, 0, 0)) == 1
    assert psi_integral(1, (1,)) == Fraction(1, 24)


def test_genus0_closed_form_up_to_eight_markings():
    # the library reaches genus 0 by the string equation alone
    for n in range(3, 9):
        for exps in _exponent_tuples(n, n - 3):
            assert psi_integral(0, exps) == psi_integral_genus0(exps), exps


def test_wrong_degree_vanishes():
    assert psi_integral(0, (1, 0, 0)) == 0
    assert psi_integral(1, (0,)) == 0
    assert psi_integral(2, (3,)) == 0


def test_one_point_tower():
    # <tau_{3g-2}>_g = 1 / (24**g * g!)
    for g in range(1, 5):
        assert psi_integral(g, (3 * g - 2,)) == Fraction(
            1, 24**g * factorial(g)
        )


def test_classic_genus_two_values():
    assert psi_integral(2, (4,)) == Fraction(1, 1152)
    assert psi_integral(2, (2, 3)) == Fraction(29, 5760)
    assert psi_integral(2, (1, 4)) == Fraction(1, 384)
    assert psi_integral(2, (2, 2, 2)) == Fraction(7, 240)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        psi_integral(0, (0, 0))  # unstable type
    with pytest.raises(ValueError):
        psi_integral(1, (-1,))
    with pytest.raises(ValueError):
        psi_integral(-1, (0, 0, 0))


@pytest.mark.parametrize("g,n", [(0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_string_equation(g, n):
    dim = 3 * g - 3 + n
    for exps in _exponent_tuples(n, dim):
        lhs = psi_integral(g, (0,) + exps)
        rhs = sum(
            psi_integral(g, exps[:i] + (exps[i] - 1,) + exps[i + 1 :])
            for i in range(n)
            if exps[i] >= 1
        )
        assert lhs == rhs, exps


@pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)])
def test_dilaton_equation(g, n):
    dim = 3 * g - 3 + n
    for exps in _exponent_tuples(n, dim):
        lhs = psi_integral(g, exps + (1,))
        assert lhs == (2 * g - 2 + n) * psi_integral(g, exps), exps


# ---------------------------------------------------------------------------
# Kappa integrals


def test_kappa_zero_is_degree_of_dualizing_sheaf():
    # kappa_0 integrates like multiplication by 2g - 2 + n.
    for g, n in [(0, 4), (1, 1), (1, 2), (2, 1)]:
        dim = 3 * g - 3 + n
        for exps in _exponent_tuples(n, dim):
            with pytest.raises(ValueError):
                kappa_psi_integral(g, exps, (0,))


def test_single_kappa_is_pushforward_of_psi_power():
    # A single kappa_a with psi decorations integrates as the psi integral
    # with one extra marking carrying exponent a + 1: the pullback
    # corrections die against the extra psi power.
    cases = [
        (1, (0,), 1),
        (1, (1, 0), 1),
        (1, (0, 0), 2),
        (2, (), 3),
        (2, (1,), 2),
        (2, (2, 0), 1),
        (0, (0, 0, 0, 0), 1),
        (0, (1, 0, 0, 0, 0), 1),
    ]
    for g, exps, a in cases:
        assert kappa_psi_integral(g, exps, (a,)) == psi_integral(
            g, exps + (a + 1,)
        ), (g, exps, a)


def test_two_kappa_reduction_identity():
    # <kappa_a kappa_b X> = <kappa_a tau_{b+1} X> - <tau_{a+b+1} X>
    for g, exps, a, b in [
        (2, (), 1, 2),
        (2, (), 2, 1),
        (1, (0,), 1, 1),
        (1, (0, 0), 1, 2),
        (2, (1,), 1, 1),
    ]:
        lhs = kappa_psi_integral(g, exps, (a, b))
        rhs = kappa_psi_integral(g, exps + (b + 1,), (a,)) - psi_integral(
            g, exps + (a + b + 1,)
        )
        assert lhs == rhs, (g, exps, a, b)


def test_mumford_kappa_one_cubed():
    assert kappa_psi_integral(2, (), (1, 1, 1)) == Fraction(43, 2880)


def test_kappa_one_on_one_pointed_elliptic():
    assert kappa_psi_integral(1, (0,), (1,)) == Fraction(1, 24)


# ---------------------------------------------------------------------------
# TautClass algebra


def test_fundamental_and_scaling():
    one = fundamental(1, 1)
    assert one + one == one.scale(2)
    assert (one - one).is_zero()
    assert one.scale(Fraction(1, 3)).scale(3) == one


def test_product_restricts_psi_and_integrates():
    psi1 = psi_class(0, 4, 1)
    assert psi1.integrate() == 1
    assert psi_class(0, 5, 1).product(psi_class(0, 5, 2)).integrate() == 2
    assert psi_class(1, 1, 1).integrate() == Fraction(1, 24)
    total = psi_class(1, 2, 1).product(psi_class(1, 2, 2)).integrate()
    assert total == psi_integral(1, (1, 1))


def test_pair_is_product_then_integral():
    a = psi_class(1, 2, 1)
    b = psi_class(1, 2, 2)
    assert a.pair(b) == a.product(b).integrate()
    assert fundamental(0, 4).pair(psi_class(0, 4, 3)) == 1


def test_kappa_class_integrates():
    assert kappa_class(1, 1, 1).integrate() == Fraction(1, 24)
    assert kappa_class(0, 4, 1).integrate() == 1


def test_boundary_stratum_integral_uses_automorphisms():
    # The irreducible one-nodal stratum on the one-pointed elliptic space:
    # its reduced class integrates to 1/2 because the node's two branches
    # can be swapped.
    loop = StableGraph((0,), (0,), ((0, 0),))
    assert stratum_class(loop).integrate() == Fraction(1, 2)
    # A separating node with no extra symmetry integrates to 1.
    d13 = StableGraph((0, 0), (0, 1, 0, 1), ((0, 1),))
    assert stratum_class(d13).integrate() == 1
    # A divisor on a two-dimensional ambient space integrates to 0.
    bubble = StableGraph((1, 0), (1, 1), ((0, 1),))
    assert stratum_class(bubble).integrate() == 0


def test_psi_decorated_stratum():
    # On the genus-two unmarked space, the elliptic-bridge stratum with one
    # psi at a branch: integral = product of vertex integrals / |Aut|.
    bridge = StableGraph((1, 1), (), ((0, 1),))
    cls = stratum_class(bridge, edge_psi=((1, 0),))
    # each vertex is (1,1); psi^1 on one branch, psi^0 on the other: the
    # degree-0 factor vanishes in integration unless it fills dimension
    assert cls.integrate() == 0
    cls2 = stratum_class(bridge, edge_psi=((1, 1),))
    assert cls2.integrate() == Fraction(1, 24) * Fraction(1, 24) * Fraction(1, 2)


def test_self_products_of_boundary_divisors():
    # Excess intersection: squaring the bubble divisor on the two-pointed
    # elliptic space picks up minus the node cotangents, and only the
    # genus-one branch contributes.
    bubble = StableGraph((1, 0), (1, 1), ((0, 1),))
    delta = stratum_class(bubble)
    assert delta.product(delta).integrate() == Fraction(-1, 24)
    # On the one-pointed space the square exceeds the dimension.
    loop = StableGraph((0,), (0,), ((0, 0),))
    sq = stratum_class(loop).product(stratum_class(loop))
    assert sq.is_zero()


def test_boundary_products_guarded_by_dimension_bound():
    bridge = StableGraph((1, 1), (0, 1), ((0, 1),))  # ambient (2,2), dim 5
    cls = stratum_class(bridge)
    with pytest.raises(ProductCapabilityError):
        cls.product(cls)


@pytest.mark.parametrize("g,n", [(1, 3), (2, 1)])
def test_contraction_structures_are_half_edge_isomorphisms(g, n):
    census = enumerate_stable_graphs(g, n)
    for ambient in census:
        for factor in census:
            structures = _contraction_structures(ambient, factor)
            need = ambient.n_edges - factor.n_edges
            if need < 0:
                assert structures == ()
                continue
            for st in structures:
                assert len(st.contracted) == need
                images = [orig for orig, _flipped in st.edge_map]
                assert len(set(images)) == len(images)
                assert set(images) == set(range(ambient.n_edges)) - st.contracted
                for (a, b), (orig, flipped) in zip(factor.edges, st.edge_map):
                    u, w = ambient.edges[orig]
                    ends = (st.vertex_map[u], st.vertex_map[w])
                    assert ends == ((b, a) if flipped else (a, b))
                for idx in st.contracted:
                    u, w = ambient.edges[idx]
                    assert st.vertex_map[u] == st.vertex_map[w]
            subsets = sum(
                ambient.contract(frozenset(combo))[0].canonical() == factor
                for combo in combinations(range(ambient.n_edges), need)
            )
            assert len(structures) == automorphism_count(factor) * subsets


def test_relabel_markings_permutes_psi():
    a = psi_class(0, 4, 1)
    assert a.relabel_markings((2, 1, 3, 4)) == psi_class(0, 4, 2)
    perm = (3, 1, 2, 4)
    b = psi_class(0, 4, 2)
    assert b.relabel_markings(perm) == psi_class(0, 4, 1)


def test_relabel_markings_moves_boundary_legs():
    d13 = StableGraph((0, 0), (0, 1, 0, 1), ((0, 1),))  # markings {1,3} | {2,4}
    d23 = StableGraph((0, 0), (1, 0, 0, 1), ((0, 1),))  # markings {2,3} | {1,4}
    assert stratum_class(d13).relabel_markings((2, 1, 3, 4)) == stratum_class(d23)


def test_forgetful_pullback_of_psi():
    # pi* psi_1 = psi_1 - D_{1,new}
    pulled = forgetful_pullback(psi_class(1, 1, 1))
    bubble = StableGraph((1, 0), (1, 1), ((0, 1),))
    assert pulled == psi_class(1, 2, 1) - stratum_class(bubble)


def test_forgetful_pullback_of_boundary():
    loop = StableGraph((0,), (0,), ((0, 0),))
    pulled = forgetful_pullback(stratum_class(loop))
    # the pullback is the same node stratum with the new marking anywhere:
    # on (1,2) that is the unique one-nodal irreducible stratum
    loop2 = StableGraph((0,), (0, 0), ((0, 0),))
    assert pulled == stratum_class(loop2)
    # psi at one branch of the node loses the stratum where that branch and
    # the new marking bubble off: two genus-0 vertices {1,2} | {3} joined
    # by two edges
    decorated = stratum_class(loop2, edge_psi=((1, 0),))
    loop3 = StableGraph((0,), (0, 0, 0), ((0, 0),))
    banana = StableGraph((0, 0), (0, 0, 1), ((0, 1), (0, 1)))
    assert forgetful_pullback(decorated) == stratum_class(
        loop3, edge_psi=((1, 0),)
    ) - stratum_class(banana)


_PULLBACK_TYPES = [(0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1)]


def _generators(g, n, degree):
    return [cls for _label, cls in generators_of_degree(g, n, degree, include_boundary=True)]


@pytest.mark.parametrize("g,n", _PULLBACK_TYPES)
def test_forgetful_pullback_section_identity(g, n):
    # the divisor where marking i <= n and the new marking bubble off is a
    # section of the forgetful map, so pi_* psi_i = 1 and
    # int pi^*(alpha) psi_i = int alpha
    for alpha in _generators(g, n, 3 * g - 3 + n):
        pulled = forgetful_pullback(alpha)
        for i in range(1, n + 1):
            assert pulled.pair(psi_class(g, n + 1, i)) == alpha.integrate(), (alpha.terms, i)


@pytest.mark.parametrize("g,n", _PULLBACK_TYPES)
def test_forgetful_pullback_dilaton_and_kappa_projection(g, n):
    # pi_* psi_{n+1}^(a+1) = kappa_a, where kappa_0 = 2g - 2 + n
    dim = 3 * g - 3 + n
    psi_new = psi_class(g, n + 1, n + 1)
    power = psi_new
    for a in range(dim + 1):
        for beta in _generators(g, n, dim - a):
            expected = (
                (2 * g - 2 + n) * beta.integrate()
                if a == 0
                else beta.pair(kappa_class(g, n, a))
            )
            assert forgetful_pullback(beta).pair(power) == expected, (beta.terms, a)
        power = power.product(psi_new)


@pytest.mark.parametrize("g,n", [(0, 4), (0, 5), (1, 1), (1, 2), (1, 3)])
def test_forgetful_pullback_is_a_ring_homomorphism(g, n):
    # pi^*(ab) - pi^*(a) pi^*(b) pairs to zero with every generator of the
    # complementary degree on (g, n + 1)
    dim = 3 * g - 3 + n
    gens = [(d, cls) for d in range(1, dim + 1) for cls in _generators(g, n, d)]
    targets = {d: _generators(g, n + 1, dim + 1 - d) for d in range(2, dim + 1)}
    for (da, a), (db, b) in combinations_with_replacement(gens, 2):
        if da + db > dim:
            continue
        diff = forgetful_pullback(a.product(b)) - forgetful_pullback(a).product(
            forgetful_pullback(b)
        )
        for other in targets[da + db]:
            assert diff.pair(other) == 0, (a.terms, b.terms)


def test_generators_of_degree_shapes():
    gens0 = generators_of_degree(1, 1, 0, include_boundary=True)
    assert len(gens0) == 1 and gens0[0][0] == "fundamental"
    gens1 = generators_of_degree(1, 1, 1, include_boundary=True)
    labels = [label for label, _ in gens1]
    assert len(set(labels)) == len(labels)
    assert len(gens1) == 3  # psi_1, kappa_1, node stratum
    interior = generators_of_degree(1, 1, 1, include_boundary=False)
    assert len(interior) == 2


def test_json_round_shape():
    cls = psi_class(0, 4, 1) + stratum_class(
        StableGraph((0, 0), (0, 0, 1, 1), ((0, 1),))
    ).scale(Fraction(1, 2))
    obj = cls.to_json_obj()
    assert obj["ambient"] == [0, 4]
    assert len(obj["terms"]) == 2
    # canonical order is deterministic
    assert obj == cls.to_json_obj()
