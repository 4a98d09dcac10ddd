"""Stable graphs: the combinatorial skeletons of nodal curves.

A stable graph of type (g, n) consists of vertices carrying genera, n
labelled legs (markings), and edges (possibly parallel, possibly loops).
The total genus is the sum of the vertex genera plus the first Betti
number of the graph, and every vertex must satisfy the stability
inequality 2*genus(v) - 2 + valence(v) > 0, where valence counts leg and
edge incidences (a loop counts twice).

Representation
--------------
``StableGraph`` stores three tuples:

* ``genera``   -- ``genera[v]`` is the genus of vertex ``v``;
* ``legs``     -- ``legs[i]`` is the vertex carrying marking ``i + 1``
  (markings are 1-based and never permuted by graph isomorphisms);
* ``edges``    -- a sorted tuple of pairs ``(u, v)`` with ``u <= v``;
  a loop is ``(v, v)``; parallel edges appear with multiplicity.

Half-edge ids (used by the JSON form and by weightings) are assigned
deterministically: marking ``i`` has id ``i``; edge ``k`` (0-based) has
ids ``n + 2k + 1`` (side of the first-listed endpoint) and ``n + 2k + 2``.

Canonical form
--------------
Two graphs are isomorphic iff their canonical forms are equal.  The
canonical form is the lexicographically smallest encoding over all vertex
relabellings compatible with a cheap isomorphism invariant; because the
invariant is preserved by every isomorphism, the representative does not
depend on the input labelling.  ``_least_relabelling`` is the one routine
computing it, for bare graphs and for graphs carrying psi and kappa
decorations; ``_graph_isomorphisms`` is the one isomorphism search, and
automorphisms are isomorphisms of a graph to itself.

Census
------
``enumerate_stable_graphs`` generates a census by degeneration from the
trivial graph, one edge at a time, and keeps one canonical form per
isomorphism class.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Iterator, Sequence

__all__ = [
    "StableGraph",
    "ComplexityBoundError",
    "trivial_graph",
    "enumerate_stable_graphs",
    "automorphism_count",
    "enumerate_weightings",
    "edge_weight_forms",
]


class ComplexityBoundError(ValueError):
    """Raised when an enumeration would exceed the configured size bound."""


@dataclass(frozen=True)
class StableGraph:
    genera: tuple[int, ...]
    legs: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    # -- construction and validation -----------------------------------

    def __post_init__(self) -> None:
        genera = tuple(int(x) for x in self.genera)
        legs = tuple(int(x) for x in self.legs)
        edges = tuple(
            (min(int(u), int(v)), max(int(u), int(v))) for u, v in self.edges
        )
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        self._validate()

    def _validate(self) -> None:
        k = len(self.genera)
        if k == 0:
            raise ValueError("a stable graph needs at least one vertex")
        if any(g < 0 for g in self.genera):
            raise ValueError("vertex genera must be nonnegative")
        if any(not (0 <= v < k) for v in self.legs):
            raise ValueError("leg attached to a nonexistent vertex")
        if any(not (0 <= u < k and 0 <= v < k) for u, v in self.edges):
            raise ValueError("edge attached to a nonexistent vertex")
        if not self._is_connected():
            raise ValueError("stable graphs must be connected")
        for v in range(k):
            if 2 * self.genera[v] - 2 + self.valence(v) <= 0:
                raise ValueError(f"vertex {v} violates stability")

    def _is_connected(self) -> bool:
        return len(set(_union_roots(len(self.genera), self.edges))) == 1

    # -- basic data -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_markings(self) -> int:
        return len(self.legs)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def h1(self) -> int:
        """First Betti number of the underlying graph."""
        return len(self.edges) - len(self.genera) + 1

    @property
    def genus(self) -> int:
        """Total (arithmetic) genus: vertex genera plus loops in the graph."""
        return sum(self.genera) + self.h1

    def valence(self, v: int) -> int:
        """Number of half-edge incidences at v (legs + edge ends; loops twice)."""
        count = sum(1 for x in self.legs if x == v)
        for u, w in self.edges:
            count += (u == v) + (w == v)
        return count

    def loops_at(self, v: int) -> int:
        return sum(1 for u, w in self.edges if u == v and w == v)

    def markings_at(self, v: int) -> tuple[int, ...]:
        return tuple(i + 1 for i, x in enumerate(self.legs) if x == v)

    def is_trivial(self) -> bool:
        return self.n_vertices == 1 and not self.edges

    # -- half-edge ids ----------------------------------------------------

    def half_edge_ids(self) -> list[int]:
        n = self.n_markings
        return list(range(1, n + 1)) + [
            n + 2 * k + j for k in range(self.n_edges) for j in (1, 2)
        ]

    def edge_half_ids(self, k: int) -> tuple[int, int]:
        """Half-edge ids of edge k: (first endpoint side, second endpoint side)."""
        n = self.n_markings
        return (n + 2 * k + 1, n + 2 * k + 2)

    def vertex_of_half_edge(self, h: int) -> int:
        n = self.n_markings
        if 1 <= h <= n:
            return self.legs[h - 1]
        k, side = divmod(h - n - 1, 2)
        return self.edges[k][side]

    # -- canonical form ----------------------------------------------------

    def _vertex_invariants(self) -> list[tuple]:
        base = []
        for v in range(self.n_vertices):
            deg = self.valence(v)
            base.append((self.genera[v], self.markings_at(v), deg, self.loops_at(v)))
        refined = []
        for v in range(self.n_vertices):
            neigh = []
            for u, w in self.edges:
                if u == v and w != v:
                    neigh.append(base[w])
                elif w == v and u != v:
                    neigh.append(base[u])
            refined.append((base[v], tuple(sorted(neigh))))
        return refined

    def _relabelling_candidates(self) -> Iterator[tuple[int, ...]]:
        """Yield vertex relabellings sigma (old index -> new index).

        Vertices are grouped by an isomorphism invariant; groups are laid out
        in sorted invariant order and all permutations within each group are
        tried.  Every isomorphism between two graphs respects the invariant,
        so taking the minimum encoding over this candidate set yields a true
        canonical form.
        """
        inv = self._vertex_invariants()
        groups: dict[tuple, list[int]] = {}
        for v, key in enumerate(inv):
            groups.setdefault(key, []).append(v)
        ordered = [groups[key] for key in sorted(groups)]
        offsets = []
        pos = 0
        for block in ordered:
            offsets.append(pos)
            pos += len(block)
        for perms in itertools.product(
            *[itertools.permutations(block) for block in ordered]
        ):
            sigma = [0] * self.n_vertices
            for block_perm, off in zip(perms, offsets):
                for j, v in enumerate(block_perm):
                    sigma[v] = off + j
            yield tuple(sigma)

    def canonical(self) -> "StableGraph":
        genera, legs, records, _kappa = _least_relabelling(
            self, ((0, 0),) * self.n_edges, ((),) * self.n_vertices
        )
        return StableGraph(genera, legs, tuple((a, b) for a, b, _p, _q in records))

    # -- marking relabelling ------------------------------------------------

    def relabel_markings(self, perm: Sequence[int]) -> "StableGraph":
        """Apply a permutation of markings: marking i becomes perm[i-1].

        ``perm`` is a sequence of length n containing 1..n.
        """
        n = self.n_markings
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError("not a permutation of the markings")
        legs = [0] * n
        for i in range(n):
            legs[perm[i] - 1] = self.legs[i]
        return StableGraph(self.genera, tuple(legs), self.edges)

    # -- contraction ----------------------------------------------------------

    def contract(
        self, contracted: frozenset[int] | set[int]
    ) -> tuple["StableGraph", list[int], list[tuple[int, bool]]]:
        """Contract the edges with the given indices.

        Contracting a non-loop edge merges its endpoints and adds the genera;
        contracting a loop (or an edge that has become a loop) raises the
        genus of its vertex by one.  In general the new genus of a merged
        class is the sum of the old genera plus the first Betti number of the
        contracted subgraph on that class.

        Returns ``(graph, vertex_map, surviving)`` where ``vertex_map[v]`` is
        the new index of old vertex ``v`` and ``surviving`` lists, in the new
        graph's edge order, pairs ``(old_edge_index, swapped)`` with
        ``swapped`` true when the stored endpoint order was reversed.
        """
        k = self.n_vertices
        root_of = _union_roots(k, [self.edges[idx] for idx in contracted])
        roots = sorted(set(root_of))
        new_index = {r: i for i, r in enumerate(roots)}
        vertex_map = [new_index[root] for root in root_of]

        class_sizes = [0] * len(roots)
        genera = [0] * len(roots)
        internal_edges = [0] * len(roots)
        for v in range(k):
            c = vertex_map[v]
            class_sizes[c] += 1
            genera[c] += self.genera[v]
        for idx in contracted:
            u, _v = self.edges[idx]
            internal_edges[vertex_map[u]] += 1
        for c in range(len(roots)):
            # Betti number of the contracted subgraph on this class.
            genera[c] += internal_edges[c] - class_sizes[c] + 1

        legs = tuple(vertex_map[v] for v in self.legs)
        records = []
        for idx, (u, v) in enumerate(self.edges):
            if idx in contracted:
                continue
            a, b = vertex_map[u], vertex_map[v]
            swapped = a > b
            records.append(((min(a, b), max(a, b)), idx, swapped))
        records.sort(key=lambda rec: (rec[0], rec[1]))
        edges = tuple(rec[0] for rec in records)
        surviving = [(rec[1], rec[2]) for rec in records]
        graph = StableGraph(tuple(genera), legs, edges)
        # The constructor re-sorts edges; our records are already sorted by
        # (endpoints, original index), which is a stable refinement of the
        # constructor's sort, so positions line up.
        assert graph.edges == edges
        return graph, vertex_map, surviving

    # -- JSON ------------------------------------------------------------------

    def to_json_obj(self) -> dict:
        n = self.n_markings
        half_edges = self.half_edge_ids()
        vertex_of = {str(h): self.vertex_of_half_edge(h) for h in half_edges}
        pairs = [list(self.edge_half_ids(k)) for k in range(self.n_edges)]
        return {
            "vertices": [
                {"id": v, "genus": g} for v, g in enumerate(self.genera)
            ],
            "half_edges": half_edges,
            "vertex_of": vertex_of,
            "involution_pairs": pairs,
            "legs": list(range(1, n + 1)),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @staticmethod
    def from_json_obj(obj: dict) -> "StableGraph":
        genera_by_id = {int(v["id"]): int(v["genus"]) for v in obj["vertices"]}
        ids = sorted(genera_by_id)
        reindex = {vid: i for i, vid in enumerate(ids)}
        genera = tuple(genera_by_id[vid] for vid in ids)
        vertex_of = {int(h): int(v) for h, v in obj["vertex_of"].items()}
        legs = tuple(reindex[vertex_of[int(h)]] for h in obj["legs"])
        edges = tuple(
            (reindex[vertex_of[int(a)]], reindex[vertex_of[int(b)]])
            for a, b in obj["involution_pairs"]
        )
        return StableGraph(genera, legs, edges)

    @staticmethod
    def from_json(text: str) -> "StableGraph":
        return StableGraph.from_json_obj(json.loads(text))


def trivial_graph(g: int, n: int) -> StableGraph:
    """The one-vertex, no-edge stable graph of type (g, n)."""
    return StableGraph((g,), (0,) * n, ())


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def _least_relabelling(
    graph: StableGraph,
    edge_psi: Sequence[tuple[int, int]],
    kappa: Sequence[tuple[int, ...]],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...], tuple]:
    """The least key ``(genera, legs, edge records, vertex decorations)`` over
    the relabelling candidates of ``graph``, whose edge ``k`` carries the
    exponent pair ``edge_psi[k]`` and whose vertex ``v`` carries ``kappa[v]``.

    An edge record is ``(u, v, p, q)`` with ``u <= v`` after relabelling and
    ``p``, ``q`` the exponents on the sides at ``u`` and ``v``; the two sides
    of a loop are put in the order ``p <= q``.  With zero decorations the
    records sort exactly like the bare edges, so the least key is that of
    the least ``(genera, legs, edges)`` encoding.
    """
    k = graph.n_vertices
    best = None
    for sigma in graph._relabelling_candidates():
        genera = [0] * k
        decorations: list[tuple[int, ...]] = [()] * k
        for v in range(k):
            genera[sigma[v]] = graph.genera[v]
            decorations[sigma[v]] = kappa[v]
        records = []
        for (u, w), (p, q) in zip(graph.edges, edge_psi):
            a, b = sigma[u], sigma[w]
            if a > b or (a == b and p > q):
                a, b, p, q = b, a, q, p
            records.append((a, b, p, q))
        records.sort()
        key = (
            tuple(genera),
            tuple(sigma[v] for v in graph.legs),
            tuple(records),
            tuple(decorations),
        )
        if best is None or key < best:
            best = key
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_stable_graphs(
    g: int, n: int, *, complexity_bound: int = 8
) -> list[StableGraph]:
    """All isomorphism classes of stable graphs of type (g, n).

    Graphs of every codimension are returned, in canonical form, sorted by
    (number of edges, encoding).  The moduli dimension 3g - 3 + n must not
    exceed ``complexity_bound``; larger requests raise
    :class:`ComplexityBoundError` (pass a bigger bound to opt in).

    The census is generated by degeneration from the trivial graph: the
    graphs with e + 1 edges are the degenerations of those with e edges,
    with duplicates removed by canonical form (McKay, "Isomorph-free
    exhaustive generation", 1998).  Contracting any edge of a graph undoes
    one of its degenerations, so every graph is reached.
    """
    if g < 0 or n < 0:
        raise ValueError("genus and marking count must be nonnegative")
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"({g}, {n}) is not a stable type")
    dim = 3 * g - 3 + n
    if dim > complexity_bound:
        raise ComplexityBoundError(
            f"dimension {dim} exceeds the bound {complexity_bound}; "
            "pass complexity_bound explicitly to enumerate anyway"
        )

    found: list[StableGraph] = []
    level = {trivial_graph(g, n)}
    while level:
        found.extend(level)
        level = {
            child.canonical() for graph in level for child in _degenerations(graph)
        }
    return sorted(found, key=lambda gr: (gr.n_edges, gr.genera, gr.legs, gr.edges))


def _degenerations(graph: StableGraph) -> Iterator[StableGraph]:
    """Stable graphs with one more edge that contract onto ``graph``.

    A vertex ``v`` either trades one genus for a loop, or splits into ``v``
    and a new last vertex joined by a new edge, the new vertex taking part
    of the genus and a subset of the half-edges at ``v``.  Swapping the two
    halves of a split gives an isomorphic graph, so the first half-edge at
    ``v`` always stays; isomorphic results are otherwise not merged.
    """
    k = graph.n_vertices
    home = {h: graph.vertex_of_half_edge(h) for h in graph.half_edge_ids()}
    for v in range(k):
        g_v = graph.genera[v]
        if g_v > 0:
            genera = graph.genera[:v] + (g_v - 1,) + graph.genera[v + 1 :]
            yield StableGraph(genera, graph.legs, graph.edges + ((v, v),))
        ends = [h for h, u in home.items() if u == v]
        rest = ends[1:]
        for size in range(len(rest) + 1):
            for moved in itertools.combinations(rest, size):
                at = {**home, **dict.fromkeys(moved, k)}
                legs = tuple(at[i] for i in range(1, graph.n_markings + 1))
                edges = tuple(
                    (at[a], at[b])
                    for a, b in map(graph.edge_half_ids, range(graph.n_edges))
                ) + ((v, k),)
                for g_new in range(g_v + 1):
                    g_old = g_v - g_new
                    # both halves stable, each with one end of the new edge
                    if 2 * g_old - 1 + len(ends) - size <= 0 or 2 * g_new - 1 + size <= 0:
                        continue
                    genera = graph.genera[:v] + (g_old,) + graph.genera[v + 1 :]
                    yield StableGraph(genera + (g_new,), legs, edges)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``, in
    lexicographic order; none when ``total`` is negative.

    Compositions into positive parts are these, for ``total - parts``,
    with every part raised by one.
    """
    if total < 0:
        return
    if parts <= 1:
        if parts == 1:
            yield (total,)
        elif total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _union_roots(k: int, links: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find over 0..k-1: the root of each element after linking every
    pair (u, v) by ``parent[find(u)] = find(v)``."""
    parent = list(range(k))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in links:
        parent[find(u)] = find(v)
    return [find(a) for a in range(k)]


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


def _graph_isomorphisms(
    source: StableGraph, target: StableGraph
) -> list[dict[int, int]]:
    """All vertex bijections source -> target preserving all structure.

    Only bijections between vertices of equal invariant are tried; every
    isomorphism preserves the invariant, and because it holds the genus and
    the markings of a vertex, each bijection tried keeps genera and fixes
    every marking, so only adjacency is left to check.
    """
    if (
        source.n_vertices != target.n_vertices
        or sorted(source.genera) != sorted(target.genera)
        or source.n_edges != target.n_edges
        or source.n_markings != target.n_markings
    ):
        return []
    src_inv = source._vertex_invariants()
    dst_inv = target._vertex_invariants()
    groups_src: dict[tuple, list[int]] = {}
    groups_dst: dict[tuple, list[int]] = {}
    for v, key in enumerate(src_inv):
        groups_src.setdefault(key, []).append(v)
    for v, key in enumerate(dst_inv):
        groups_dst.setdefault(key, []).append(v)
    if set(groups_src) != set(groups_dst) or any(
        len(groups_src[k]) != len(groups_dst[k]) for k in groups_src
    ):
        return []
    src_adj = _adjacency_matrix(source)
    dst_adj = _adjacency_matrix(target)
    k = source.n_vertices
    keys = sorted(groups_src)
    out = []
    for perms in itertools.product(
        *[itertools.permutations(groups_dst[key]) for key in keys]
    ):
        iso: dict[int, int] = {}
        for key, perm in zip(keys, perms):
            for src_v, dst_v in zip(groups_src[key], perm):
                iso[src_v] = dst_v
        if all(
            src_adj[u][w] == dst_adj[iso[u]][iso[w]]
            for u in range(k)
            for w in range(u, k)
        ):
            out.append(iso)
    return out


def automorphism_count(graph: StableGraph) -> int:
    """Order of the automorphism group acting on half-edges.

    Automorphisms fix every leg, may permute vertices and edges, and may
    flip the two half-edges of a loop.  The count factors as

        (#vertex symmetries) * prod_{u<v} m_{uv}! * prod_v (l_v! * 2**l_v)

    where m_{uv} is the number of parallel edges joining distinct vertices
    u, v and l_v the number of loops at v: parallel edges and loops may be
    permuted freely, and each loop's half-edges may be swapped.
    """
    adjacency = _adjacency_matrix(graph)
    total = len(_graph_isomorphisms(graph, graph))
    k = graph.n_vertices
    for u in range(k):
        for v in range(u, k):
            m = adjacency[u][v]
            if u == v:
                total *= factorial(m) * 2**m
            else:
                total *= factorial(m)
    return total


def _adjacency_matrix(graph: StableGraph) -> list[list[int]]:
    k = graph.n_vertices
    mat = [[0] * k for _ in range(k)]
    for u, v in graph.edges:
        if u == v:
            mat[u][u] += 1
        else:
            mat[u][v] += 1
            mat[v][u] += 1
    return mat


# ---------------------------------------------------------------------------
# Weightings mod r
# ---------------------------------------------------------------------------


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
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(k)}
    for idx, (u, v) in enumerate(graph.edges):
        if u != v:
            adj[u].append((v, idx))
            adj[v].append((u, idx))
    tree_edges: list[int] = []
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for w, idx in adj[u]:
            if w not in seen:
                seen.add(w)
                tree_edges.append(idx)
                frontier.append(w)
    tree_set = set(tree_edges)
    free_edges = [e for e in range(graph.n_edges) if e not in tree_set]

    # Component of the first endpoint after deleting a tree edge from the tree.
    forms: list[tuple[int, dict[int, int]]] = [(0, {}) for _ in range(graph.n_edges)]
    for f in free_edges:
        forms[f] = (0, {f: 1})
    tree_adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(k)}
    for idx in tree_edges:
        u, v = graph.edges[idx]
        tree_adj[u].append((v, idx))
        tree_adj[v].append((u, idx))
    for e in tree_edges:
        u0, _v0 = graph.edges[e]
        side = {u0}
        stack = [u0]
        while stack:
            a = stack.pop()
            for b, idx in tree_adj[a]:
                if idx == e or b in side:
                    continue
                side.add(b)
                stack.append(b)
        const = -sum(
            int(leg_values[i]) for i, v in enumerate(graph.legs) if v in side
        )
        coeffs: dict[int, int] = {}
        for f in free_edges:
            p, q = graph.edges[f]
            if p == q:
                continue
            if p in side and q not in side:
                coeffs[f] = -1
            elif q in side and p not in side:
                coeffs[f] = 1
        forms[e] = (const, coeffs)
    return forms, free_edges


def enumerate_weightings(
    graph: StableGraph,
    r: int,
    leg_values: Sequence[int],
    *,
    max_count: int = 10**6,
) -> list[dict[int, int]]:
    """All weightings mod r, as maps from half-edge id to residue.

    Legs carry ``leg_values[i] mod r``; the two half-edges of every edge sum
    to 0 mod r; the half-edges at every vertex sum to 0 mod r.  There are
    exactly ``r**h1`` weightings when ``sum(leg_values) == 0 (mod r)`` and
    none otherwise.
    """
    if r < 1:
        raise ValueError("modulus must be positive")
    if sum(leg_values) % r != 0:
        return []
    forms, free_edges = edge_weight_forms(graph, leg_values)
    if r ** len(free_edges) > max_count:
        raise ComplexityBoundError(
            f"{r}**{len(free_edges)} weightings exceed the bound {max_count}"
        )
    out: list[dict[int, int]] = []
    n = graph.n_markings
    for assignment in itertools.product(range(r), repeat=len(free_edges)):
        x = dict(zip(free_edges, assignment))
        weighting: dict[int, int] = {}
        for i in range(n):
            weighting[i + 1] = int(leg_values[i]) % r
        for e in range(graph.n_edges):
            const, coeffs = forms[e]
            w = (const + sum(m * x[f] for f, m in coeffs.items())) % r
            h1_id, h2_id = graph.edge_half_ids(e)
            weighting[h1_id] = w
            weighting[h2_id] = (-w) % r
        out.append(weighting)
    return out
