"""Closed-form sums of edge-weight products over weightings mod r.

For a stable graph with prescribed leg values, the weightings mod r form a
coset of size r**h1 parametrised by one free residue per edge outside a
spanning tree.  Each edge weight is an affine form in those variables with
coefficients in {-1, 0, +1} (see ``edge_weight_forms``).  This module
computes, for a family of exponent profiles j, the exact sums

    T(j) = sum over all weightings of prod_e [ y_e * (r - y_e) ]**j_e

where ``y_e`` in [0, r) is the residue of one side of edge ``e`` (the
product y(r-y) is the same from either side).  The cost is polynomial in
the degree and the number of breakpoints and does not grow with r: sums
over a residue variable are evaluated with Faulhaber polynomials on the
maximal subranges where every edge residue is given by a single affine
expression.

Free variables are grouped into components by the edges they influence;
components with one or two variables are summed in closed form.  Three or
more coupled variables (which first occurs for total genus 3) are not
supported and raise :class:`UnsupportedWeightingSum`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .qpoly import BiPoly, QPoly
from .stable_graphs import StableGraph, _union_roots, edge_weight_forms

__all__ = ["UnsupportedWeightingSum", "weighting_power_sums"]


class UnsupportedWeightingSum(NotImplementedError):
    """Raised when more than two cycle variables are coupled through an edge."""


def weighting_power_sums(
    graph: StableGraph,
    leg_values: Sequence[int],
    r: int,
    profiles: Sequence[tuple[int, ...]],
) -> dict[tuple[int, ...], Fraction]:
    """Exact T(j) for each exponent profile j (one exponent per edge).

    Profiles must have one entry per edge of the graph.  If the leg values
    do not sum to 0 mod r there are no weightings and every sum is 0.
    """
    if r < 1:
        raise ValueError("modulus must be positive")
    for profile in profiles:
        if len(profile) != graph.n_edges:
            raise ValueError("profile length must match the edge count")
    if sum(leg_values) % r != 0:
        return {tuple(p): Fraction(0) for p in profiles}
    forms, free_edges = edge_weight_forms(graph, leg_values)

    # Group free variables into components linked by shared edges.
    var_index = {f: i for i, f in enumerate(free_edges)}
    links = []
    for const, coeffs in forms:
        involved = [var_index[f] for f in coeffs]
        links += [(involved[0], other) for other in involved[1:]]
    root_of = _union_roots(len(free_edges), links)
    comp_of_var = {free_edges[i]: root_of[i] for i in range(len(free_edges))}
    comp_edges: dict[int, list[int]] = {}
    const_edges: list[int] = []
    for e, (const, coeffs) in enumerate(forms):
        if coeffs:
            comp = root_of[var_index[next(iter(coeffs))]]
            comp_edges.setdefault(comp, []).append(e)
        else:
            const_edges.append(e)

    results: dict[tuple[int, ...], Fraction] = {}
    component_cache: dict[tuple, Fraction] = {}
    for profile in profiles:
        profile = tuple(profile)
        total = Fraction(1)
        for e in const_edges:
            if profile[e]:
                y = forms[e][0] % r
                total *= Fraction(y * (r - y)) ** profile[e]
            if total == 0:
                break
        if total != 0:
            for comp, edges in comp_edges.items():
                comp_vars = sorted(
                    f for f in free_edges if comp_of_var[f] == comp
                )
                key = (comp, tuple(profile[e] for e in edges))
                if key not in component_cache:
                    component_cache[key] = _component_sum(
                        [(forms[e][0], forms[e][1], profile[e]) for e in edges],
                        comp_vars,
                        r,
                    )
                total *= component_cache[key]
                if total == 0:
                    break
        results[profile] = total
    return results


def _component_sum(
    edges: list[tuple[int, dict[int, int], int]],
    variables: list[int],
    r: int,
) -> Fraction:
    if len(variables) == 1:
        var = variables[0]
        one_d = []
        for const, coeffs, j in edges:
            eps = coeffs.get(var, 0)
            if eps == 0:
                raise AssertionError("component edge without its variable")
            # y = (eps*x + const) mod r; using the evenness of y(r-y) under
            # y -> -y, an eps of -1 is the same as +1 with negated constant.
            c = const if eps == 1 else -const
            one_d.append(((-c) % r, j))
        return _sum_one_variable(one_d, r)
    if len(variables) == 2:
        return _sum_two_variables(edges, variables, r)
    raise UnsupportedWeightingSum(
        f"{len(variables)} coupled cycle variables are not supported "
        "(closed-form summation is implemented for at most two)"
    )


def _factor_poly(zero_point: QPoly, j: int, r: int) -> QPoly:
    """[(x - b)(r - (x - b))]**j as a polynomial, with y = x - b."""
    y = QPoly([0, 1]) - zero_point
    return (y * (r - y)) ** j


def _sum_one_variable(edges: list[tuple[int, int]], r: int) -> Fraction:
    """Sum over x in [0, r) of prod (y_e (r - y_e))**j_e, y_e = (x - b_e) mod r.

    ``edges`` holds pairs (b_e, j_e) with b_e in [0, r).  The residue is
    x - b_e for x >= b_e and x - b_e + r below, so the summand is a single
    polynomial on each stretch between consecutive zero points.
    """
    points = sorted({b for b, _j in edges})
    total = Fraction(0)
    boundaries = points + [r]
    start = 0
    for idx in range(len(boundaries)):
        lo = start if idx == 0 else boundaries[idx - 1]
        hi = boundaries[idx] - 1
        if hi < lo:
            continue
        poly = QPoly([1])
        for b, j in edges:
            if j == 0:
                continue
            shift = b if b <= lo else b - r
            poly = poly * _factor_poly(QPoly.constant(shift), j, r)
        total += poly.sum_over_range(lo, hi)
    return total


def _sum_two_variables(
    edges: list[tuple[int, dict[int, int], int]],
    variables: list[int],
    r: int,
) -> Fraction:
    """Closed-form double sum for a two-variable component.

    The outer variable u is split at every residue where some inner zero
    point wraps or two inner zero points cross; on each stretch the inner
    segmentation is given by affine bounds and the inner Faulhaber sum is a
    polynomial in u, which the outer Faulhaber sum then evaluates.
    """
    u_var, v_var = variables
    normalized: list[tuple[int, int, int, int]] = []  # (const, eu, ev, j)
    for const, coeffs, j in edges:
        eu = coeffs.get(u_var, 0)
        ev = coeffs.get(v_var, 0)
        if ev == -1:
            const, eu, ev = -const, -eu, 1
        elif ev == 0 and eu == -1:
            const, eu = -const, 1
        normalized.append((const, eu, ev, j))

    breakpoints: set[int] = set()
    inner = [(c, eu, j) for c, eu, ev, j in normalized if ev == 1]
    outer_only = [((-c) % r, j) for c, eu, ev, j in normalized if ev == 0]
    for b, _j in outer_only:
        breakpoints.add(b)
    for c, eu, _j in inner:
        # wrap of the zero point beta(u) = (-c - eu*u) mod r
        if eu != 0:
            breakpoints.add((-c * eu) % r)
    for i in range(len(inner)):
        for k in range(i + 1, len(inner)):
            ci, ei, _ji = inner[i]
            ck, ek, _jk = inner[k]
            dcoef = ek - ei
            dconst = ci - ck
            # crossings: dcoef * u == dconst (mod r)
            if dcoef == 0:
                continue
            if abs(dcoef) == 1:
                breakpoints.add((dconst * dcoef) % r)
            else:  # |dcoef| == 2
                target = dconst if dcoef == 2 else -dconst
                if r % 2 == 1:
                    breakpoints.add((target * ((r + 1) // 2)) % r)
                elif target % 2 == 0:
                    breakpoints.add((target // 2) % r)
                    breakpoints.add((target // 2 + r // 2) % r)

    points = sorted(breakpoints)
    total = Fraction(0)
    # Singleton values of u at each breakpoint.
    for b in points:
        one_d = []
        const_factor = Fraction(1)
        for c, eu, ev, j in normalized:
            if ev == 1:
                one_d.append(((-(c + eu * b)) % r, j))
            else:
                y = (c + eu * b) % r
                const_factor *= Fraction(y * (r - y)) ** j
        if const_factor:
            total += const_factor * _sum_one_variable(one_d, r)

    # Open stretches between consecutive breakpoints (cyclically closed by
    # the two end stretches [0, first-1] and [last+1, r-1]).
    stretches: list[tuple[int, int]] = []
    if points:
        stretches.append((0, points[0] - 1))
        for i in range(len(points) - 1):
            stretches.append((points[i] + 1, points[i + 1] - 1))
        stretches.append((points[-1] + 1, r - 1))
    else:
        stretches.append((0, r - 1))
    for lo, hi in stretches:
        if hi < lo:
            continue
        total += _stretch_sum(inner, outer_only, lo, hi, r)
    return total


def _stretch_sum(
    inner: list[tuple[int, int, int]],
    outer_only: list[tuple[int, int]],
    lo: int,
    hi: int,
    r: int,
) -> Fraction:
    """Double sum over u in [lo, hi], v in [0, r) with affine inner bounds."""
    # Zero points of inner edges as exact affine functions of u on the
    # stretch: beta(u) = beta(lo) - eu * (u - lo), valid because no wrap
    # point lies inside.
    betas = []
    for c, eu, j in inner:
        beta_lo = (-(c + eu * lo)) % r
        betas.append((beta_lo, -eu, j))  # value beta_lo + slope*(u - lo)
    order = sorted(range(len(betas)), key=lambda i: betas[i][0])
    u = QPoly([0, 1])
    beta_polys = [
        QPoly.constant(b_lo - slope * lo) + slope * u for b_lo, slope, _j in betas
    ]
    bound_polys = [beta_polys[i] for i in order] + [QPoly.constant(r)]
    lower = QPoly.constant(0)
    inner_total = QPoly()
    for seg in range(len(bound_polys)):
        upper = bound_polys[seg]
        summand = BiPoly([QPoly([1])])
        for rank, i in enumerate(order):
            b_lo, slope, j = betas[i]
            if j == 0:
                continue
            offset = 0 if rank < seg else r
            # y = v - beta(u) + offset
            y = BiPoly(
                [QPoly.constant(offset) - beta_polys[i], QPoly.constant(1)]
            )
            summand = summand * ((y * (r - y)) ** j)
        inner_total = inner_total + summand.sum_v_over_range(lower, upper - 1)
        lower = upper
    poly_u = inner_total
    for b, j in outer_only:
        if j == 0:
            continue
        shift = b if b <= lo else b - r
        poly_u = poly_u * _factor_poly(QPoly.constant(shift), j, r)
    return poly_u.sum_over_range(lo, hi)
