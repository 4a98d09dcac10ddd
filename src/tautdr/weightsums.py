"""Closed-form sums of edge-weight products over weightings mod r.

For a stable graph with prescribed leg values, the weightings mod r form a
coset of size r**h1 parametrised by one free residue per edge outside a
spanning tree.  Each edge weight is an affine form in those variables with
coefficients in {-1, 0, +1}, found by ``edge_weight_forms``.  From them the
module computes, for a family of exponent profiles j, the exact sums

    T(j) = sum over all weightings of prod_e [ y_e * (r - y_e) ]**j_e

where ``y_e`` in [0, r) is the residue of one side of edge ``e`` (the
product y(r-y) is the same from either side).  T(j) is an integer.

Free variables are grouped into components by the edges they influence,
and each component is summed by one routine, whatever its size k: the
first k-1 variables run over all their residues, and the last one is
summed in closed form with Faulhaber polynomials on the maximal subranges
where every edge residue is a single affine expression.  A component of k
variables therefore costs r**(k-1) one-variable closed forms; a single
variable costs one, independent of r.  There is no limit on k.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .qpoly import QPoly
from .stable_graphs import StableGraph, _union_roots

__all__ = ["edge_weight_forms", "weighting_power_sums"]


def edge_weight_forms(
    graph: StableGraph, leg_values: Sequence[int]
) -> tuple[list[tuple[int, dict[int, int]]], list[int]]:
    """Affine forms for edge weights in terms of free edge variables.

    A weighting assigns to each half-edge a residue mod r such that legs
    carry the prescribed values, the two halves of an edge sum to zero and
    the half-edges at each vertex sum to zero.  Writing ``w_e`` for the
    weight of the first-listed side of edge ``e``, the general solution is

        w_e = c_e + sum_f m_{ef} * x_f       (mod r)

    with one free variable ``x_f`` per edge outside a spanning tree (loops
    are always free) and coefficients ``m_{ef}`` in {-1, 0, +1}.

    Returns ``(forms, free_edges)`` where ``forms[e] = (c_e, {f: m_ef})``
    indexed by edge, and ``free_edges`` lists the free edge indices (each
    with form ``(0, {f: 1})``).  Solvability additionally requires
    ``sum(leg_values) == 0 (mod r)``, which the caller checks.
    """
    if len(leg_values) != graph.n_markings:
        raise ValueError("one leg value per marking is required")
    k = graph.n_vertices
    edges = graph.edges
    # An edge joining two components of the edges before it is a tree edge.
    tree_edges = []
    for e, (u, v) in enumerate(edges):
        root_of = _union_roots(k, edges[:e])
        if root_of[u] != root_of[v]:
            tree_edges.append(e)
    free_edges = [e for e in range(graph.n_edges) if e not in tree_edges]

    # Deleting tree edge e splits the tree; ``side`` is the part holding the
    # first endpoint of e.
    forms: list[tuple[int, dict[int, int]]] = [
        (0, {f: 1}) for f in range(graph.n_edges)
    ]
    for e in tree_edges:
        root_of = _union_roots(k, [edges[t] for t in tree_edges if t != e])
        side = {v for v in range(k) if root_of[v] == root_of[edges[e][0]]}
        const = -sum(
            int(leg_values[i]) for i, v in enumerate(graph.legs) if v in side
        )
        coeffs: dict[int, int] = {}
        for f in free_edges:
            p, q = edges[f]
            if p == q:
                continue
            if p in side and q not in side:
                coeffs[f] = -1
            elif q in side and p not in side:
                coeffs[f] = 1
        forms[e] = (const, coeffs)
    return forms, free_edges


def weighting_power_sums(
    graph: StableGraph,
    leg_values: Sequence[int],
    moduli: Sequence[int],
    profiles: Sequence[tuple[int, ...]],
) -> dict[tuple[int, ...], list[int]]:
    """Exact T(j) at each modulus r for each exponent profile j.

    Returns, for each profile (one exponent per edge), the list of sums in
    the order of ``moduli``.  ``leg_values`` needs one entry per marking.
    At a modulus r that does not divide the sum of the leg values there
    are no weightings and every sum is 0.  The edge forms and the grouping
    of free variables into components do not depend on r, so they are
    computed once for all moduli.
    """
    if any(r < 1 for r in moduli):
        raise ValueError("moduli must be positive")
    for profile in profiles:
        if len(profile) != graph.n_edges:
            raise ValueError("profile length must match the edge count")
        if any(j < 0 for j in profile):
            raise ValueError("profile exponents must be nonnegative")
    forms, free_edges = edge_weight_forms(graph, leg_values)

    # Group free variables into components linked by shared edges.
    var_index = {f: i for i, f in enumerate(free_edges)}
    links = []
    for const, coeffs in forms:
        involved = [var_index[f] for f in coeffs]
        links += [(involved[0], other) for other in involved[1:]]
    root_of = _union_roots(len(free_edges), links)
    comp_vars: dict[int, list[int]] = {}
    for i, f in enumerate(free_edges):
        comp_vars.setdefault(root_of[i], []).append(f)
    comp_edges: dict[int, list[int]] = {comp: [] for comp in comp_vars}
    const_edges: list[int] = []
    for e, (const, coeffs) in enumerate(forms):
        if coeffs:
            comp_edges[root_of[var_index[next(iter(coeffs))]]].append(e)
        else:
            const_edges.append(e)

    results: dict[tuple[int, ...], list[int]] = {tuple(p): [] for p in profiles}
    for r in moduli:
        if sum(leg_values) % r != 0:
            for sums in results.values():
                sums.append(0)
            continue
        component_cache: dict[tuple, int] = {}
        for profile, sums in results.items():
            total = 1
            for e in const_edges:
                if profile[e]:
                    y = forms[e][0] % r
                    total *= (y * (r - y)) ** profile[e]
                if total == 0:
                    break
            if total != 0:
                for comp, edges in comp_edges.items():
                    key = (comp, tuple(profile[e] for e in edges))
                    if key not in component_cache:
                        component_cache[key] = _component_sum(
                            [(forms[e][0], forms[e][1], profile[e]) for e in edges],
                            comp_vars[comp],
                            r,
                        )
                    total *= component_cache[key]
                    if total == 0:
                        break
            sums.append(total)
    return results


def _component_sum(
    edges: list[tuple[int, dict[int, int], int]],
    variables: list[int],
    r: int,
) -> int:
    """Sum over all residues of ``variables`` of prod (y_e (r - y_e))**j_e.

    ``edges`` holds (const, {variable: coefficient}, j) with
    y_e = (const + sum coefficient * variable) mod r.  Every variable but
    the last runs over [0, r); at each point the edges without the last
    variable give a constant factor and the rest a one-variable sum.
    """
    *outer, last = variables
    total = 0
    for values in itertools.product(range(r), repeat=len(outer)):
        fixed = dict(zip(outer, values))
        factor = 1
        one_d = []
        for const, coeffs, j in edges:
            c = const + sum(m * fixed[f] for f, m in coeffs.items() if f != last)
            eps = coeffs.get(last, 0)
            if eps == 0:
                y = c % r
                factor *= (y * (r - y)) ** j
            else:
                # y = (eps*x + c) mod r; using the evenness of y(r-y) under
                # y -> -y, an eps of -1 is the same as +1 with negated c.
                one_d.append(((-c if eps == 1 else c) % r, j))
        if factor:
            total += factor * _sum_one_variable(one_d, r)
    return total


def _sum_one_variable(edges: list[tuple[int, int]], r: int) -> int:
    """Sum over x in [0, r) of prod (y_e (r - y_e))**j_e, y_e = (x - b_e) mod r.

    ``edges`` holds pairs (b_e, j_e) with b_e in [0, r).  The residue is
    x - b_e for x >= b_e and x - b_e + r below, so the summand is a single
    polynomial on each stretch between consecutive zero points.  Each
    summand is an integer, so the exact rational total is one too.
    """
    points = sorted({b for b, _j in edges})
    total = Fraction(0)
    for lo, end in zip([0] + points, points + [r]):
        if end <= lo:
            continue
        poly = QPoly([1])
        for b, j in edges:
            if j == 0:
                continue
            y = QPoly([-(b if b <= lo else b - r), 1])
            poly = poly * (y * (r - y)) ** j
        total += poly.sum_over_range(lo, end - 1)
    return int(total)
