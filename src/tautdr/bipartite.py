"""Two-sided gluing graphs for relative geometry of the pair (P^1, point).

A graph here has a *rubber side* (vertices carrying non-rigid targets over
the divisor point) and a *rigid side* (vertices carrying honest maps to the
curve).  Half-edges come in four kinds:

* interior legs, labelled ``1..n``;
* contact roots at the zero end of a rubber vertex, weighted by positive
  integers;
* marking-type contact roots at the infinity end of a rubber vertex,
  weighted by negative integers;
* marking-type contact roots on rigid vertices, weighted by positive
  integers.

Every contact root carries a distinct label in ``n+1..n+rho``.  Node-type
roots are not labelled individually: they are recorded as the graph's edges
``(rubber index, rigid index, degree)``, an edge standing for a pair of
matched node roots whose weights ``-d`` and ``+d`` cancel.

Because the divisor is a point, curve classes on the rubber side vanish and
the per-vertex balance conditions take a purely integral form:

* rubber vertex: (sum of zero-end weights) + (sum of infinity-end marking
  weights) - (sum of incident edge degrees) = 0;
* rigid vertex: (sum of marking-root weights) + (sum of incident edge
  degrees) = vertex degree.

A rubber target admits a stable non-rigid map only when the contact data at
both of its ends is non-empty, so each rubber vertex needs at least one
zero-end root and at least one infinity-end half-edge (marking root or
edge).  A vertex is stable when its degree is non-zero or the number of
half-edges exceeds ``2 - 2*genus``.  The rigid side may be empty only for
graphs consisting of a single rubber vertex; the whole graph must be
connected.

:func:`enumerate_bipartite` generates candidates in one flat loop.  For each
count of rubber and rigid vertices it places every positive root on a
vertex (a zero-end root on a rubber vertex, a marking root on a rigid one),
keeping only placements in which every rubber vertex has a zero-end root and
rubber vertices come in the order of their least zero-end root.  It places
every negative root on a rubber vertex, balances each rubber vertex with a
bundle of edges, and drops a disconnected edge list before any leg or
vertex genus is placed.  Each remaining candidate is validated by the
constructor and reduced to its canonical form.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .stable_graphs import _compositions, _union_roots

__all__ = [
    "RubberVertex",
    "RelativeVertex",
    "BipartiteGraph",
    "TopologicalType",
    "EnumerationBounds",
    "enumerate_bipartite",
    "genus_of",
    "rho_minus",
]


def _check_label_weight_pairs(pairs, kind, positive):
    for item in pairs:
        if (
            not isinstance(item, tuple)
            or len(item) != 2
            or not all(isinstance(x, int) for x in item)
        ):
            raise ValueError(f"{kind} entries must be (label, weight) integer pairs")
        label, weight = item
        if label < 1:
            raise ValueError(f"{kind} labels must be positive integers")
        if positive and weight <= 0:
            raise ValueError(f"{kind} weights must be positive")
        if not positive and weight >= 0:
            raise ValueError(f"{kind} weights must be negative")


@dataclass(frozen=True)
class RubberVertex:
    """A vertex carrying a non-rigid target over the divisor point.

    ``zero_roots`` are the labelled contact points at the zero end (positive
    weights); ``neg_roots`` are the labelled marking-type contact points at
    the infinity end (negative weights).  Node-type contact points at the
    infinity end are implicit in the ambient graph's edge list.
    """

    genus: int
    legs: tuple = ()
    zero_roots: tuple = ()
    neg_roots: tuple = ()

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if not all(isinstance(l, int) and l >= 1 for l in self.legs):
            raise ValueError("legs must be positive integer labels")
        _check_label_weight_pairs(self.zero_roots, "zero_roots", positive=True)
        _check_label_weight_pairs(self.neg_roots, "neg_roots", positive=False)

    @property
    def contact_sum(self):
        """Total edge degree this vertex must carry to balance its roots."""
        return sum(w for _, w in self.zero_roots) + sum(w for _, w in self.neg_roots)

    def sort_key(self):
        return (
            self.genus,
            tuple(sorted(self.legs)),
            tuple(sorted(self.zero_roots)),
            tuple(sorted(self.neg_roots)),
        )


@dataclass(frozen=True)
class RelativeVertex:
    """A vertex of the rigid side, mapping to the curve with the given degree.

    ``marking_roots`` are labelled contact points along the divisor with
    positive weights.  Node-type roots are implicit in the edge list.
    """

    genus: int
    degree: int
    legs: tuple = ()
    marking_roots: tuple = ()

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if not all(isinstance(l, int) and l >= 1 for l in self.legs):
            raise ValueError("legs must be positive integer labels")
        _check_label_weight_pairs(self.marking_roots, "marking_roots", positive=True)

    def sort_key(self):
        return (
            self.genus,
            self.degree,
            tuple(sorted(self.legs)),
            tuple(sorted(self.marking_roots)),
        )


@dataclass(frozen=True)
class BipartiteGraph:
    """A connected two-sided gluing graph over the pair (P^1, point).

    ``edges`` entries are ``(rubber index, rigid index, degree)`` with
    degree >= 1; parallel edges are allowed and ``edges`` is kept sorted.
    Validation enforces the label bookkeeping, the per-vertex balance
    conditions, per-vertex stability, rubber-end non-degeneracy and
    connectivity described in the module docstring.
    """

    side0: tuple
    side_inf: tuple
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "side0", tuple(self.side0))
        object.__setattr__(self, "side_inf", tuple(self.side_inf))
        object.__setattr__(self, "edges", tuple(sorted(tuple(e) for e in self.edges)))
        self._validate()

    # -- validation -----------------------------------------------------

    def _validate(self):
        if not all(isinstance(v, RubberVertex) for v in self.side0):
            raise ValueError("side0 must contain RubberVertex values")
        if not all(isinstance(v, RelativeVertex) for v in self.side_inf):
            raise ValueError("side_inf must contain RelativeVertex values")
        if not self.side0 and not self.side_inf:
            raise ValueError("graph must have at least one vertex")

        for e in self.edges:
            if len(e) != 3 or not all(isinstance(x, int) for x in e):
                raise ValueError("edges must be (rubber, rigid, degree) triples")
            i0, iinf, d = e
            if not (0 <= i0 < len(self.side0)):
                raise ValueError("edge refers to a missing rubber vertex")
            if not (0 <= iinf < len(self.side_inf)):
                raise ValueError("edge refers to a missing rigid vertex")
            if d < 1:
                raise ValueError("edge degrees must be positive")

        self._validate_labels()
        self._validate_balance()
        self._validate_stability()
        if not self._is_connected():
            raise ValueError("graph must be connected")

    def _validate_labels(self):
        legs = []
        roots = []
        for v in self.side0:
            legs.extend(v.legs)
            roots.extend(l for l, _ in v.zero_roots)
            roots.extend(l for l, _ in v.neg_roots)
        for v in self.side_inf:
            legs.extend(v.legs)
            roots.extend(l for l, _ in v.marking_roots)
        n = len(legs)
        rho = len(roots)
        if sorted(legs) != list(range(1, n + 1)):
            raise ValueError("leg labels must be exactly 1..n")
        if sorted(roots) != list(range(n + 1, n + rho + 1)):
            raise ValueError("contact-root labels must be exactly n+1..n+rho")

    def _edge_degree_at_rubber(self, i):
        return sum(d for i0, _, d in self.edges if i0 == i)

    def _edge_degree_at_rigid(self, j):
        return sum(d for _, iinf, d in self.edges if iinf == j)

    def _edge_count_at_rubber(self, i):
        return sum(1 for i0, _, _ in self.edges if i0 == i)

    def _edge_count_at_rigid(self, j):
        return sum(1 for _, iinf, _ in self.edges if iinf == j)

    def _validate_balance(self):
        for i, v in enumerate(self.side0):
            if v.contact_sum != self._edge_degree_at_rubber(i):
                raise ValueError(
                    "rubber vertex root weights must balance its edge degrees"
                )
            if not v.zero_roots:
                raise ValueError("rubber vertex needs contact at its zero end")
            if not v.neg_roots and self._edge_count_at_rubber(i) == 0:
                raise ValueError("rubber vertex needs contact at its infinity end")
        for j, v in enumerate(self.side_inf):
            total = sum(w for _, w in v.marking_roots) + self._edge_degree_at_rigid(j)
            if total != v.degree:
                raise ValueError(
                    "rigid vertex root weights plus edge degrees must equal its degree"
                )

    def _validate_stability(self):
        for i, v in enumerate(self.side0):
            half_edges = (
                len(v.legs)
                + len(v.zero_roots)
                + len(v.neg_roots)
                + self._edge_count_at_rubber(i)
            )
            if half_edges <= 2 - 2 * v.genus:
                raise ValueError("unstable rubber vertex")
        for j, v in enumerate(self.side_inf):
            half_edges = (
                len(v.legs) + len(v.marking_roots) + self._edge_count_at_rigid(j)
            )
            if v.degree == 0 and half_edges <= 2 - 2 * v.genus:
                raise ValueError("unstable rigid vertex")

    def _is_connected(self):
        links = [(i0, len(self.side0) + iinf) for i0, iinf, _ in self.edges]
        total = len(self.side0) + len(self.side_inf)
        return len(set(_union_roots(total, links))) == 1

    # -- derived data ----------------------------------------------------

    @property
    def first_betti(self):
        return len(self.edges) - (len(self.side0) + len(self.side_inf)) + 1

    @property
    def total_genus(self):
        verts = sum(v.genus for v in self.side0) + sum(v.genus for v in self.side_inf)
        return verts + self.first_betti

    def topological_type(self):
        """The tuple (g, n, beta, rho, mu) this graph contributes to."""
        legs = []
        weights = {}
        for v in self.side0:
            legs.extend(v.legs)
            for label, w in v.zero_roots:
                weights[label] = w
            for label, w in v.neg_roots:
                weights[label] = w
        for v in self.side_inf:
            legs.extend(v.legs)
            for label, w in v.marking_roots:
                weights[label] = w
        n = len(legs)
        mu = tuple(weights[label] for label in sorted(weights))
        beta = sum(v.degree for v in self.side_inf)
        return TopologicalType(self.total_genus, n, beta, len(mu), mu)

    # -- canonical form and symmetry -------------------------------------

    def _encode(self, perm0, perminf):
        inv0 = {old: new for new, old in enumerate(perm0)}
        invinf = {old: new for new, old in enumerate(perminf)}
        side0 = tuple(self.side0[old].sort_key() for old in perm0)
        side_inf = tuple(self.side_inf[old].sort_key() for old in perminf)
        edges = tuple(sorted((inv0[i0], invinf[iinf], d) for i0, iinf, d in self.edges))
        return (side0, side_inf, edges)

    def _symmetry(self):
        """The canonical form and the automorphism count, from one pass over
        all pairs of vertex relabellings.

        The pairs reaching the least encoding form a coset of the group of
        vertex permutations preserving vertex data and the edge multiset, so
        their number is that group's order.  Parallel edges of equal degree
        may also be permuted freely.
        """
        best = None
        for perm0 in itertools.permutations(range(len(self.side0))):
            for perminf in itertools.permutations(range(len(self.side_inf))):
                enc = self._encode(perm0, perminf)
                if best is None or enc < best:
                    best, best_perms, count = enc, (perm0, perminf), 1
                elif enc == best:
                    count += 1
        for m in Counter(self.edges).values():
            count *= factorial(m)
        perm0, perminf = best_perms
        inv0 = {old: new for new, old in enumerate(perm0)}
        invinf = {old: new for new, old in enumerate(perminf)}
        side0 = tuple(
            RubberVertex(
                v.genus,
                tuple(sorted(v.legs)),
                tuple(sorted(v.zero_roots)),
                tuple(sorted(v.neg_roots)),
            )
            for v in (self.side0[old] for old in perm0)
        )
        side_inf = tuple(
            RelativeVertex(
                v.genus,
                v.degree,
                tuple(sorted(v.legs)),
                tuple(sorted(v.marking_roots)),
            )
            for v in (self.side_inf[old] for old in perminf)
        )
        edges = tuple(sorted((inv0[i0], invinf[iinf], d) for i0, iinf, d in self.edges))
        return BipartiteGraph(side0, side_inf, edges), count

    def canonical(self):
        """Isomorph-invariant representative (vertex and edge order gauge)."""
        return self._symmetry()[0]

    def automorphism_count(self):
        """Order of the symmetry group fixing every labelled half-edge.

        Vertices carrying labelled half-edges are pinned, so the vertex part
        only permutes label-free vertices; edge symmetries contribute one
        factorial per class of parallel equal-degree edges.
        """
        return self._symmetry()[1]

    # -- serialization ----------------------------------------------------

    def to_json_obj(self):
        return {
            "side0": [
                {
                    "genus": v.genus,
                    "legs": list(v.legs),
                    "zero_roots": [list(p) for p in v.zero_roots],
                    "neg_roots": [list(p) for p in v.neg_roots],
                }
                for v in self.side0
            ],
            "side_inf": [
                {
                    "genus": v.genus,
                    "degree": v.degree,
                    "legs": list(v.legs),
                    "marking_roots": [list(p) for p in v.marking_roots],
                }
                for v in self.side_inf
            ],
            "edges": [list(e) for e in self.edges],
        }

    @staticmethod
    def from_json_obj(obj):
        side0 = tuple(
            RubberVertex(
                v["genus"],
                tuple(v["legs"]),
                tuple(tuple(p) for p in v["zero_roots"]),
                tuple(tuple(p) for p in v["neg_roots"]),
            )
            for v in obj["side0"]
        )
        side_inf = tuple(
            RelativeVertex(
                v["genus"],
                v["degree"],
                tuple(v["legs"]),
                tuple(tuple(p) for p in v["marking_roots"]),
            )
            for v in obj["side_inf"]
        )
        edges = tuple(tuple(e) for e in obj["edges"])
        return BipartiteGraph(side0, side_inf, edges)


@dataclass(frozen=True)
class TopologicalType:
    """Discrete invariants (g, n, beta, rho, mu) of a gluing problem."""

    genus: int
    num_legs: int
    beta: int
    rho: int
    mu: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(self.mu))
        if self.genus < 0 or self.num_legs < 0 or self.beta < 0:
            raise ValueError("genus, leg count and beta must be non-negative")
        if len(self.mu) != self.rho:
            raise ValueError("mu must have length rho")
        if any(not isinstance(m, int) or m == 0 for m in self.mu):
            raise ValueError("contact orders must be non-zero integers")

    def validate_degree_pairing(self):
        if sum(self.mu) != self.beta:
            raise ValueError("contact orders must sum to the curve degree")


def genus_of(graph):
    """Total genus of a gluing graph: vertex genera plus the loop count."""
    return graph.total_genus


@dataclass(frozen=True)
class EnumerationBounds:
    """Caps for the systematic generator.

    ``None`` means "use the intrinsic bound" derived from the topological
    type; explicit values may truncate the enumeration, in which case the
    output is complete only within the caps.  A cap of 0 is a cap: no
    vertex, edge or edge degree of that kind may occur.
    """

    max_rubber_vertices: int | None = None
    max_rigid_vertices: int | None = None
    max_edges: int | None = None
    max_edge_degree: int | None = None

    def __post_init__(self):
        for name, cap in vars(self).items():
            if cap is not None and cap < 0:
                raise ValueError(f"{name} must be non-negative or None")


def _cap(cap, intrinsic):
    """An explicit cap, clipped to the intrinsic bound it can only tighten."""
    return intrinsic if cap is None else min(cap, intrinsic)


def _edge_multisets(total, targets, max_deg, max_parts):
    """Multisets of (target, degree) pairs with degrees summing to total."""
    if total == 0:
        yield ()
        return
    if not targets or max_parts == 0:
        return
    alphabet = [(t, d) for t in targets for d in range(1, min(total, max_deg) + 1)]

    def rec(start, remaining, parts_left, chosen):
        if remaining == 0:
            yield tuple(chosen)
            return
        if parts_left == 0:
            return
        for k in range(start, len(alphabet)):
            t, d = alphabet[k]
            if d <= remaining:
                chosen.append((t, d))
                yield from rec(k, remaining - d, parts_left - 1, chosen)
                chosen.pop()

    yield from rec(0, total, max_parts, [])


def _slots(items, places, k):
    """The items placed on each of ``k`` slots, in their given order."""
    return [tuple(x for x, p in zip(items, places) if p == i) for i in range(k)]


def enumerate_bipartite(gamma, bounds=None):
    """All isomorphism classes of gluing graphs of the given topological type.

    Returns a list of ``(graph, automorphism_count)`` pairs in a
    deterministic order.  ``gamma`` is a :class:`TopologicalType`; its
    contact orders must sum to ``beta``.

    Root placement: each positive root goes to a vertex, as a zero-end root
    on a rubber vertex or a marking root on a rigid one, and each negative
    root to a rubber vertex.  Rubber ordering: a placement is kept only if
    every rubber vertex has a zero-end root and the rubber vertices come in
    the order of their least zero-end root, so the s! reorderings of the
    rubber side are generated once.  Each rubber vertex then gets an edge
    bundle balancing its roots, and connectivity is decided on the edge
    list before legs and vertex genera are placed.  Every candidate left
    is validated by :class:`BipartiteGraph`.
    """
    if not isinstance(gamma, TopologicalType):
        gamma = TopologicalType(*gamma)
    gamma.validate_degree_pairing()
    if bounds is None:
        bounds = EnumerationBounds()

    g, n, mu = gamma.genus, gamma.num_legs, gamma.mu
    pos = [(n + 1 + j, m) for j, m in enumerate(mu) if m > 0]
    neg = [(n + 1 + j, m) for j, m in enumerate(mu) if m < 0]
    s_plus = sum(m for _, m in pos)
    max_edges = _cap(bounds.max_edges, s_plus)
    max_edge_degree = _cap(bounds.max_edge_degree, s_plus)

    found = {}
    for s, t in itertools.product(
        range(_cap(bounds.max_rubber_vertices, len(pos)) + 1),
        range(_cap(bounds.max_rigid_vertices, max(gamma.beta, 1)) + 1),
    ):
        for places in itertools.product(range(s + t), repeat=len(pos)):
            if list(dict.fromkeys(p for p in places if p < s)) != list(range(s)):
                continue
            roots = _slots(pos, places, s + t)
            for neg_places in itertools.product(range(s), repeat=len(neg)):
                neg_roots = _slots(neg, neg_places, s)
                bundles = [
                    _edge_multisets(
                        sum(w for _, w in roots[i] + neg_roots[i]),
                        range(t),
                        max_edge_degree,
                        max_edges,
                    )
                    for i in range(s)
                ]
                for per_rubber in itertools.product(*bundles):
                    edges = [(i, j, d) for i, b in enumerate(per_rubber) for j, d in b]
                    h1 = len(edges) - (s + t) + 1
                    links = [(i, s + j) for i, j, _ in edges]
                    if (
                        len(edges) > max_edges
                        or h1 > g
                        or len(set(_union_roots(s + t, links))) != 1
                    ):
                        continue
                    degrees = [
                        sum(w for _, w in roots[s + j])
                        + sum(d for _, k, d in edges if k == j)
                        for j in range(t)
                    ]
                    for leg_places in itertools.product(range(s + t), repeat=n):
                        legs = _slots(range(1, n + 1), leg_places, s + t)
                        for genera in _compositions(g - h1, s + t):
                            try:
                                graph = BipartiteGraph(
                                    tuple(
                                        RubberVertex(
                                            genera[i], legs[i], roots[i], neg_roots[i]
                                        )
                                        for i in range(s)
                                    ),
                                    tuple(
                                        RelativeVertex(
                                            genera[s + j],
                                            degrees[j],
                                            legs[s + j],
                                            roots[s + j],
                                        )
                                        for j in range(t)
                                    ),
                                    edges,
                                )
                            except ValueError:
                                continue
                            if graph.topological_type() == gamma:
                                key, aut = graph._symmetry()
                                found.setdefault(key, aut)

    ordered = sorted(found, key=lambda gr: gr._encode(
        tuple(range(len(gr.side0))), tuple(range(len(gr.side_inf)))
    ))
    return [(gr, found[gr]) for gr in ordered]


def rho_minus(mu, r):
    """Number of negative contact orders, certified through the age formula.

    Evaluates sum(mu_i/r for positive mu_i) + sum((r+mu_i)/r for negative
    mu_i) - sum(mu)/r exactly and checks it is the integer equal to the
    count of negative entries.  Requires r > max|mu_i|.
    """
    mu = tuple(mu)
    if any(not isinstance(m, int) or m == 0 for m in mu):
        raise ValueError("contact orders must be non-zero integers")
    if mu and r <= max(abs(m) for m in mu):
        raise ValueError("r must exceed every |contact order|")
    if r < 1:
        raise ValueError("r must be a positive integer")
    total = Fraction(0)
    for m in mu:
        if m > 0:
            total += Fraction(m, r)
        else:
            total += Fraction(r + m, r)
    total -= Fraction(sum(mu), r)
    if total.denominator != 1:
        raise ValueError("age sum is not integral; r is below the valid range")
    value = int(total)
    expected = sum(1 for m in mu if m < 0)
    if value != expected:
        raise ValueError("age sum does not equal the negative-contact count")
    return value
