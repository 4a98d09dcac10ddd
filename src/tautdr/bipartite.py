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
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .stable_graphs import _compositions

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
        total = len(self.side0) + len(self.side_inf)
        if total == 1:
            return True
        adj = {k: set() for k in range(total)}
        for i0, iinf, _ in self.edges:
            a, b = i0, len(self.side0) + iinf
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == total

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

    def canonical(self):
        """Isomorph-invariant representative (vertex and edge order gauge)."""
        best = None
        best_perms = None
        for perm0 in itertools.permutations(range(len(self.side0))):
            for perminf in itertools.permutations(range(len(self.side_inf))):
                enc = self._encode(perm0, perminf)
                if best is None or enc < best:
                    best = enc
                    best_perms = (perm0, perminf)
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
        return BipartiteGraph(side0, side_inf, edges)

    def automorphism_count(self):
        """Order of the symmetry group fixing every labelled half-edge.

        Vertices carrying labelled half-edges are pinned, so the vertex part
        only permutes label-free vertices; edge symmetries contribute one
        factorial per class of parallel equal-degree edges.
        """
        keys0 = [v.sort_key() for v in self.side0]
        keysinf = [v.sort_key() for v in self.side_inf]
        edge_multi = {}
        for e in self.edges:
            edge_multi[e] = edge_multi.get(e, 0) + 1

        def valid_perms(keys, adjacency_of):
            count = 0
            for perm in itertools.permutations(range(len(keys))):
                if any(keys[perm[i]] != keys[i] for i in range(len(keys))):
                    continue
                if all(
                    adjacency_of(perm[i]) == adjacency_of(i) for i in range(len(keys))
                ):
                    count += 1
            return count

        # Vertex symmetries must respect adjacency.  Rubber vertices are
        # always pinned (each carries a labelled zero root), so only the
        # rigid side can move; its images must see the same multiset of
        # (rubber neighbour, degree) pairs.
        def rigid_adj(j):
            return tuple(sorted((i0, d) for i0, iinf, d in self.edges if iinf == j))

        def rubber_adj(i):
            return tuple(sorted((iinf, d) for i0, iinf, d in self.edges if i0 == i))

        vertex_part = valid_perms(keys0, rubber_adj) * valid_perms(keysinf, rigid_adj)

        edge_part = 1
        for m in edge_multi.values():
            for k in range(2, m + 1):
                edge_part *= k
        return vertex_part * edge_part

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

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True)


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
    output is complete only within the caps.
    """

    max_rubber_vertices: int | None = None
    max_rigid_vertices: int | None = None
    max_edges: int | None = None
    max_edge_degree: int | None = None


def _set_partitions(items, blocks):
    """Partitions of ``items`` into exactly ``blocks`` non-empty lists."""
    items = list(items)
    if blocks == 0:
        if not items:
            yield []
        return
    if len(items) < blocks:
        return

    def rec(rest, parts):
        if not rest:
            if len(parts) == blocks:
                yield [list(p) for p in parts]
            return
        x = rest[0]
        for i in range(len(parts)):
            parts[i].append(x)
            yield from rec(rest[1:], parts)
            parts[i].pop()
        if len(parts) < blocks:
            parts.append([x])
            yield from rec(rest[1:], parts)
            parts.pop()

    yield from rec(items, [])


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


def _distributions(labels, num_targets):
    """All assignments of each label to one of ``num_targets`` slots."""
    if num_targets == 0:
        if labels:
            return
        yield {}
        return
    for combo in itertools.product(range(num_targets), repeat=len(labels)):
        yield dict(zip(labels, combo))


def enumerate_bipartite(gamma, bounds=None):
    """All isomorphism classes of gluing graphs of the given topological type.

    Returns a list of ``(graph, automorphism_count)`` pairs in a
    deterministic order.  ``gamma`` is a :class:`TopologicalType`; its
    contact orders must sum to ``beta``.
    """
    if not isinstance(gamma, TopologicalType):
        gamma = TopologicalType(*gamma)
    gamma.validate_degree_pairing()
    if bounds is None:
        bounds = EnumerationBounds()

    g, n, beta, rho, mu = gamma.genus, gamma.num_legs, gamma.beta, gamma.rho, gamma.mu
    pos = [n + 1 + j for j in range(rho) if mu[j] > 0]
    neg = [n + 1 + j for j in range(rho) if mu[j] < 0]
    weight = {n + 1 + j: mu[j] for j in range(rho)}
    s_plus = sum(mu[j] for j in range(rho) if mu[j] > 0)

    max_rubber = min(len(pos), bounds.max_rubber_vertices or len(pos))
    max_rigid = bounds.max_rigid_vertices or max(beta, 1)
    max_edges = min(s_plus, bounds.max_edges or s_plus)
    max_edge_degree = min(s_plus, bounds.max_edge_degree or s_plus)
    legs = list(range(1, n + 1))

    found = {}

    def consider(side0, side_inf, edges):
        try:
            graph = BipartiteGraph(side0, side_inf, edges)
        except ValueError:
            return
        if graph.topological_type() != gamma:
            return
        key = graph.canonical()
        if key not in found:
            found[key] = key.automorphism_count()

    for p0 in _subsets(pos):
        p0set = set(p0)
        pinf = [l for l in pos if l not in p0set]
        rubber_labels = list(p0) + neg
        s_choices = [0] if not rubber_labels else range(1, max_rubber + 1)
        for s in s_choices:
            if s == 0 and rubber_labels:
                continue
            for zero_blocks in _set_partitions(p0, s):
                for neg_assign in _distributions(neg, s):
                    # per-rubber-vertex labelled content
                    rubber_data = []
                    ok = True
                    for i in range(s):
                        zr = tuple(
                            sorted((l, weight[l]) for l in zero_blocks[i])
                        )
                        nr = tuple(
                            sorted(
                                (l, weight[l])
                                for l, tgt in neg_assign.items()
                                if tgt == i
                            )
                        )
                        need = sum(w for _, w in zr) + sum(w for _, w in nr)
                        if need < 0 or (need == 0 and not nr):
                            # cannot balance, or no infinity-end contact
                            ok = False
                            break
                        rubber_data.append((zr, nr, need))
                    if not ok:
                        continue
                    total_edge_degree = sum(need for _, _, need in rubber_data)
                    if total_edge_degree > s_plus:
                        continue
                    t_min = 0 if total_edge_degree == 0 and not pinf else 1
                    for t in range(t_min, max_rigid + 1):
                        if t == 0 and (pinf or total_edge_degree):
                            continue
                        for mark_assign in _distributions(pinf, t):
                            for leg_assign in _distributions(legs, s + t):
                                yield_edges = [
                                    _edge_multisets(
                                        need,
                                        range(t),
                                        max_edge_degree,
                                        max_edges,
                                    )
                                    for _, _, need in rubber_data
                                ]
                                for per_vertex_edges in itertools.product(
                                    *yield_edges
                                ):
                                    edges = []
                                    for i, bundle in enumerate(per_vertex_edges):
                                        for tgt, d in bundle:
                                            edges.append((i, tgt, d))
                                    if len(edges) > max_edges:
                                        continue
                                    h1 = len(edges) - (s + t) + 1
                                    gsum = g - h1
                                    if gsum < 0:
                                        continue
                                    for genera in _compositions(gsum, s + t):
                                        side0 = tuple(
                                            RubberVertex(
                                                genera[i],
                                                tuple(
                                                    l
                                                    for l, tgt in leg_assign.items()
                                                    if tgt == i
                                                ),
                                                rubber_data[i][0],
                                                rubber_data[i][1],
                                            )
                                            for i in range(s)
                                        )
                                        side_inf = tuple(
                                            RelativeVertex(
                                                genera[s + j],
                                                sum(
                                                    weight[l]
                                                    for l, tgt in mark_assign.items()
                                                    if tgt == j
                                                )
                                                + sum(
                                                    d
                                                    for i0, tgt, d in edges
                                                    if tgt == j
                                                ),
                                                tuple(
                                                    l
                                                    for l, tgt in leg_assign.items()
                                                    if tgt == s + j
                                                ),
                                                tuple(
                                                    sorted(
                                                        (l, weight[l])
                                                        for l, tgt in mark_assign.items()
                                                        if tgt == j
                                                    )
                                                ),
                                            )
                                            for j in range(t)
                                        )
                                        consider(side0, side_inf, edges)

    ordered = sorted(found, key=lambda gr: gr._encode(
        tuple(range(len(gr.side0))), tuple(range(len(gr.side_inf)))
    ))
    return [(gr, found[gr]) for gr in ordered]


def _subsets(items):
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


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
