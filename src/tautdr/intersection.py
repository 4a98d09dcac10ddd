"""Exact intersection theory on moduli of stable curves.

This module computes integrals of psi and kappa classes, represents
tautological classes as rational combinations of decorated boundary
strata, and multiplies and integrates such classes.

Conventions
-----------
* ``psi_i`` is the cotangent class at marking ``i`` (1-based).
* ``kappa_a`` is the pushforward of ``psi**(a+1)`` from one more marking;
  with this choice kappa classes restrict to boundary strata without
  correction terms, summing over vertices.
* A :class:`DecoratedStratum` is a stable graph with psi exponents on its
  half-edges and a kappa multiset on each vertex.  A stored term
  ``(stratum, c)`` of a :class:`TautClass` represents the cycle

      c * (1 / #Aut(graph)) * pushforward of the decoration monomial

  under the gluing map of the graph.  The automorphism normalisation is
  applied in exactly one place (:func:`aut_normalization`); with it, the
  undecorated term with coefficient 1 is the class of the closed stratum
  with its reduced structure.
* Products of total degree greater than 3g - 3 + n are the zero class and
  are dropped.

Integrals of psi monomials are computed by the string and dilaton
equations together with the genus-reducing recursion for a largest index,
seeded by the values on M_{0,3} and M_{1,1} (in genus 0 the string equation
alone reaches every value); values are memoised in-process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .qpoly import QPoly
from .stable_graphs import (
    StableGraph,
    _compositions,
    _graph_isomorphisms,
    _least_relabelling,
    automorphism_count,
    enumerate_stable_graphs,
    trivial_graph,
)

__all__ = [
    "psi_integral",
    "kappa_psi_integral",
    "DecoratedStratum",
    "TautClass",
    "aut_normalization",
    "fundamental",
    "psi_class",
    "kappa_class",
    "stratum_class",
    "ProductCapabilityError",
    "forgetful_pullback",
    "generators_of_degree",
    "PRODUCT_DIMENSION_BOUND",
]


class ProductCapabilityError(NotImplementedError):
    """Raised when a product of boundary terms exceeds the supported range."""


# ---------------------------------------------------------------------------
# psi and kappa integrals
# ---------------------------------------------------------------------------

_PSI_CACHE: dict[tuple[int, tuple[int, ...]], Fraction] = {}


def _double_factorial(m: int) -> int:
    """(2k+1)!! style odd double factorial; (-1)!! = 1."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def psi_integral(g: int, exponents: Sequence[int]) -> Fraction:
    """The integral of prod_i psi_i**exponents[i] over moduli of type (g, n).

    Returns 0 when the total degree differs from 3g - 3 + n, and raises on
    an unstable (g, n).
    """
    n = len(exponents)
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"({g}, {n}) is not a stable type")
    if any(d < 0 for d in exponents):
        raise ValueError("psi exponents must be nonnegative")
    return _psi(g, tuple(sorted(exponents)))


def _psi(g: int, ds: tuple[int, ...]) -> Fraction:
    """Internal psi integral; returns 0 on unstable or mismatched input."""
    n = len(ds)
    if g < 0 or 2 * g - 2 + n <= 0 or any(d < 0 for d in ds):
        return Fraction(0)
    if sum(ds) != 3 * g - 3 + n:
        return Fraction(0)
    key = (g, ds)
    cached = _PSI_CACHE.get(key)
    if cached is not None:
        return cached
    value = _psi_compute(g, ds)
    _PSI_CACHE[key] = value
    return value


def _psi_compute(g: int, ds: tuple[int, ...]) -> Fraction:
    n = len(ds)
    if (g, n) == (0, 3):
        return Fraction(1)
    if (g, n) == (1, 1):
        return Fraction(1, 24)
    if 0 in ds:
        # string equation
        rest = list(ds)
        rest.remove(0)
        total = Fraction(0)
        for j in range(len(rest)):
            if rest[j] >= 1:
                reduced = rest[:j] + [rest[j] - 1] + rest[j + 1 :]
                total += _psi(g, tuple(sorted(reduced)))
        return total
    if 1 in ds:
        # dilaton equation
        rest = list(ds)
        rest.remove(1)
        return (2 * g - 2 + (n - 1)) * _psi(g, tuple(sorted(rest)))
    # All exponents >= 2 (so g >= 2): recursion on a largest index.
    k_plus_1 = ds[-1]
    k = k_plus_1 - 1
    rest = list(ds[:-1])
    total = Fraction(0)
    for j in range(len(rest)):
        coeff = Fraction(
            _double_factorial(2 * k + 2 * rest[j] + 1),
            _double_factorial(2 * rest[j] - 1),
        )
        reduced = rest[:j] + [k + rest[j]] + rest[j + 1 :]
        total += coeff * _psi(g, tuple(sorted(reduced)))
    inner = Fraction(0)
    for a in range(k):
        b = k - 1 - a
        coeff = Fraction(_double_factorial(2 * a + 1) * _double_factorial(2 * b + 1))
        inner_term = _psi(g - 1, tuple(sorted(rest + [a, b])))
        split_sum = Fraction(0)
        for part_i, part_j in _subset_splits(rest):
            for g1 in range(g + 1):
                g2 = g - g1
                left = _psi(g1, tuple(sorted(part_i + (a,))))
                if left:
                    right = _psi(g2, tuple(sorted(part_j + (b,))))
                    if right:
                        split_sum += left * right
        inner += coeff * (inner_term + split_sum)
    total += Fraction(1, 2) * inner
    return total / _double_factorial(2 * k + 3)


def kappa_psi_integral(
    g: int, psi_exponents: Sequence[int], kappa_indices: Sequence[int]
) -> Fraction:
    """Integral of a psi monomial times a kappa monomial on type (g, n).

    ``kappa_indices`` is a multiset of positive integers: ``(1, 1, 2)``
    means kappa_1**2 * kappa_2.  Kappa classes are removed one at a time by
    pushing the integral to one extra marking:

        int kappa_b * X = int psi_{new}**(b+1) * pi^* X

    and expanding the pullbacks ``pi^* kappa_a = kappa_a - psi_new**a``
    (psi pullback corrections die against the extra psi power), which
    yields an alternating sum over subsets of the remaining kappa indices.
    """
    n = len(psi_exponents)
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"({g}, {n}) is not a stable type")
    if any(a < 1 for a in kappa_indices):
        raise ValueError("kappa indices must be positive")
    if any(d < 0 for d in psi_exponents):
        raise ValueError("psi exponents must be nonnegative")
    return _kappa_psi(
        g, tuple(sorted(psi_exponents)), tuple(sorted(kappa_indices))
    )


@lru_cache(maxsize=None)
def _kappa_psi(
    g: int, psis: tuple[int, ...], kappas: tuple[int, ...]
) -> Fraction:
    if not kappas:
        return _psi(g, psis)
    first, rest = kappas[0], kappas[1:]
    total = Fraction(0)
    for chosen, remaining in _subset_splits(rest):
        extra = first + 1 + sum(chosen)
        sign = -1 if len(chosen) % 2 else 1
        total += sign * _kappa_psi(
            g, tuple(sorted(psis + (extra,))), tuple(sorted(remaining))
        )
    return total


def _subset_splits(
    items: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every split of ``items`` by position into ``(chosen, rest)``, both in
    the order of ``items``: chosen subsets by increasing size, each size in
    lexicographic order of positions."""
    indices = range(len(items))
    for size in range(len(items) + 1):
        for subset in itertools.combinations(indices, size):
            yield (
                tuple(items[i] for i in subset),
                tuple(items[i] for i in indices if i not in subset),
            )


# ---------------------------------------------------------------------------
# Decorated strata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecoratedStratum:
    """A stable graph with psi exponents and kappa decorations.

    ``leg_psi[i]`` is the psi exponent at marking ``i + 1``;
    ``edge_psi[k]`` holds the exponents on the two sides of edge ``k`` in
    the stored endpoint order; ``kappa[v]`` is the sorted multiset of kappa
    indices at vertex ``v``.
    """

    graph: StableGraph
    leg_psi: tuple[int, ...]
    edge_psi: tuple[tuple[int, int], ...]
    kappa: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.leg_psi) != self.graph.n_markings:
            raise ValueError("one psi exponent per marking is required")
        if len(self.edge_psi) != self.graph.n_edges:
            raise ValueError("one psi exponent pair per edge is required")
        if len(self.kappa) != self.graph.n_vertices:
            raise ValueError("one kappa multiset per vertex is required")
        object.__setattr__(
            self, "edge_psi", tuple((int(p), int(q)) for p, q in self.edge_psi)
        )
        object.__setattr__(
            self, "kappa", tuple(tuple(sorted(int(a) for a in ks)) for ks in self.kappa)
        )
        if any(p < 0 or q < 0 for p, q in self.edge_psi):
            raise ValueError("psi exponents must be nonnegative")
        if any(x < 0 for x in self.leg_psi):
            raise ValueError("psi exponents must be nonnegative")
        if any(a < 1 for ks in self.kappa for a in ks):
            raise ValueError("kappa indices must be positive")

    @property
    def degree(self) -> int:
        return (
            self.graph.n_edges
            + sum(self.leg_psi)
            + sum(p + q for p, q in self.edge_psi)
            + sum(sum(ks) for ks in self.kappa)
        )

    def canonical(self) -> "DecoratedStratum":
        return _canonical_stratum(self)

    def psi_exponents_at_vertex(self, v: int) -> list[int]:
        out = [self.leg_psi[i] for i, x in enumerate(self.graph.legs) if x == v]
        for k, (u, w) in enumerate(self.graph.edges):
            if u == v:
                out.append(self.edge_psi[k][0])
            if w == v:
                out.append(self.edge_psi[k][1])
        return out


@lru_cache(maxsize=None)
def _canonical_stratum(stratum: DecoratedStratum) -> DecoratedStratum:
    genera, legs, records, kappa = _least_relabelling(
        stratum.graph, stratum.edge_psi, stratum.kappa
    )
    return DecoratedStratum(
        StableGraph(genera, legs, tuple((a, b) for a, b, _p, _q in records)),
        stratum.leg_psi,
        tuple((p, q) for _a, _b, p, q in records),
        kappa,
    )


def aut_normalization(graph: StableGraph) -> Fraction:
    """The 1/#Aut factor relating a stored term to the cycle it represents.

    This is the only place the convention enters: a term (stratum, c)
    stands for c * aut_normalization(graph) * pushforward(decoration).
    """
    return Fraction(1, automorphism_count(graph))


# ---------------------------------------------------------------------------
# Tautological classes
# ---------------------------------------------------------------------------


class TautClass:
    """A rational (or polynomial-coefficient) sum of decorated strata."""

    __slots__ = ("g", "n", "terms")

    def __init__(self, g: int, n: int, terms: dict[DecoratedStratum, object] | None = None):
        self.g = g
        self.n = n
        self.terms: dict[DecoratedStratum, object] = {}
        if terms:
            for stratum, coeff in terms.items():
                self._accumulate(stratum, coeff)

    # -- construction helpers -------------------------------------------

    @property
    def dimension(self) -> int:
        return 3 * self.g - 3 + self.n

    def _accumulate(self, stratum: DecoratedStratum, coeff) -> None:
        if not coeff:
            return
        if stratum.graph.genus != self.g or stratum.graph.n_markings != self.n:
            raise ValueError("stratum does not live in the ambient moduli")
        if stratum.degree > self.dimension:
            return  # classes above the dimension vanish
        key = stratum.canonical()
        new = self.terms.get(key, 0) + coeff
        if not new:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "TautClass") -> "TautClass":
        self._check_ambient(other)
        out = TautClass(self.g, self.n)
        out.terms = dict(self.terms)
        for stratum, coeff in other.terms.items():
            out._accumulate(stratum, coeff)
        return out

    def __neg__(self) -> "TautClass":
        return self.map_coefficients(lambda c: -c)

    def __sub__(self, other: "TautClass") -> "TautClass":
        return self + (-other)

    def scale(self, factor) -> "TautClass":
        return self.map_coefficients(lambda c: c * factor)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TautClass):
            return NotImplemented
        return (
            self.g == other.g and self.n == other.n and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"TautClass(g={self.g}, n={self.n}, {len(self.terms)} terms)"

    def is_zero(self) -> bool:
        return not self.terms

    def _check_ambient(self, other: "TautClass") -> None:
        if (self.g, self.n) != (other.g, other.n):
            raise ValueError("ambient moduli types differ")

    # -- products ------------------------------------------------------------

    def product(self, other: "TautClass") -> "TautClass":
        """Exact cup product of tautological classes.

        A factor supported on the trivial graph multiplies into any class by
        restriction (psi at a marking restricts to psi at the corresponding
        leg, kappa to the sum of vertex kappas).  Products of two boundary
        terms are computed by excess intersection over common degenerations
        and are supported only up to ambient dimension
        ``PRODUCT_DIMENSION_BOUND``.
        """
        self._check_ambient(other)
        out = TautClass(self.g, self.n)
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                if s1.graph.is_trivial():
                    _multiply_trivial_into(out, s1, c1, s2, c2)
                elif s2.graph.is_trivial():
                    _multiply_trivial_into(out, s2, c2, s1, c1)
                else:
                    _multiply_boundary_terms(out, s1, c1, s2, c2)
        return out

    def integrate(self) -> Fraction:
        """Integral over the moduli space (degree of the zero-cycle part).

        Terms whose degree is not the ambient dimension contribute 0; on a
        term of top degree the integral factors over vertices.
        """
        total: object = Fraction(0)
        for stratum, coeff in self.terms.items():
            if stratum.degree != self.dimension:
                continue
            value = aut_normalization(stratum.graph)
            for v in range(stratum.graph.n_vertices):
                value *= kappa_psi_integral(
                    stratum.graph.genera[v],
                    stratum.psi_exponents_at_vertex(v),
                    stratum.kappa[v],
                )
                if value == 0:
                    break
            if value != 0:
                total = total + coeff * value
        return total

    def pair(self, other: "TautClass") -> Fraction:
        """Integral of the product of the two classes."""
        return self.product(other).integrate()

    # -- operations on markings ----------------------------------------------

    def relabel_markings(self, perm: Sequence[int]) -> "TautClass":
        """Apply a permutation of markings: marking i becomes perm[i-1]."""
        out = TautClass(self.g, self.n)
        for stratum, coeff in self.terms.items():
            graph = stratum.graph.relabel_markings(perm)
            leg_psi = [0] * self.n
            for i in range(self.n):
                leg_psi[perm[i] - 1] = stratum.leg_psi[i]
            out._accumulate(
                DecoratedStratum(graph, tuple(leg_psi), stratum.edge_psi, stratum.kappa),
                coeff,
            )
        return out

    # -- coefficient transforms ------------------------------------------------

    def map_coefficients(self, fn) -> "TautClass":
        out = TautClass(self.g, self.n)
        for stratum, coeff in self.terms.items():
            new = fn(coeff)
            if new:
                out.terms[stratum] = new
        return out

    def evaluate_poly_coefficients(self, r: int) -> "TautClass":
        """Evaluate polynomial coefficients at an integer argument."""
        def ev(c):
            return c(Fraction(r)) if isinstance(c, QPoly) else c
        return self.map_coefficients(ev)

    # -- JSON -------------------------------------------------------------------

    def to_json_obj(self) -> dict:
        terms = []
        for stratum in sorted(
            self.terms,
            key=lambda s: (
                s.graph.n_edges,
                s.graph.genera,
                s.graph.legs,
                s.graph.edges,
                s.leg_psi,
                s.edge_psi,
                s.kappa,
            ),
        ):
            coeff = self.terms[stratum]
            psi: dict[str, int] = {}
            for i, k in enumerate(stratum.leg_psi):
                if k:
                    psi[str(i + 1)] = k
            for e, (p, q) in enumerate(stratum.edge_psi):
                h1, h2 = stratum.graph.edge_half_ids(e)
                if p:
                    psi[str(h1)] = p
                if q:
                    psi[str(h2)] = q
            kappa = {
                str(v): list(ks) for v, ks in enumerate(stratum.kappa) if ks
            }
            if isinstance(coeff, QPoly):
                coeff_obj: object = {"poly_r": [str(c) for c in coeff.coeffs]}
            else:
                coeff_obj = str(coeff)
            terms.append(
                {
                    "graph": stratum.graph.to_json_obj(),
                    "psi": psi,
                    "kappa": kappa,
                    "coeff": coeff_obj,
                }
            )
        return {"ambient": [self.g, self.n], "terms": terms}


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def fundamental(g: int, n: int) -> TautClass:
    return stratum_class(trivial_graph(g, n))


def psi_class(g: int, n: int, i: int) -> TautClass:
    if not (1 <= i <= n):
        raise ValueError("marking index out of range")
    leg_psi = tuple(1 if j == i - 1 else 0 for j in range(n))
    stratum = DecoratedStratum(trivial_graph(g, n), leg_psi, (), ((),))
    return TautClass(g, n, {stratum: Fraction(1)})


def kappa_class(g: int, n: int, a: int) -> TautClass:
    if a < 1:
        raise ValueError("kappa index must be positive")
    stratum = DecoratedStratum(trivial_graph(g, n), (0,) * n, (), ((a,),))
    return TautClass(g, n, {stratum: Fraction(1)})


def stratum_class(
    graph: StableGraph,
    leg_psi: Sequence[int] | None = None,
    edge_psi: Sequence[tuple[int, int]] | None = None,
    kappa: Sequence[Sequence[int]] | None = None,
    coeff=Fraction(1),
) -> TautClass:
    """The class of a decorated stratum under the stored-term convention.

    With default decorations and coefficient this is the reduced class of
    the closed stratum associated to the graph.
    """
    stratum = DecoratedStratum(
        graph,
        tuple(leg_psi) if leg_psi is not None else (0,) * graph.n_markings,
        tuple(edge_psi) if edge_psi is not None else ((0, 0),) * graph.n_edges,
        tuple(tuple(ks) for ks in kappa)
        if kappa is not None
        else ((),) * graph.n_vertices,
    )
    return TautClass(graph.genus, graph.n_markings, {stratum: coeff})


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

PRODUCT_DIMENSION_BOUND = 4


def _multiply_trivial_into(
    out: TautClass, triv: DecoratedStratum, c1, stratum: DecoratedStratum, c2
) -> None:
    """Multiply a trivial-graph monomial into an arbitrary stratum term.

    Restriction to the stratum sends psi at a marking to psi at the leg
    carrying it and kappa_a to the sum of kappa_a over vertices.
    """
    graph = stratum.graph
    leg_psi = tuple(a + b for a, b in zip(stratum.leg_psi, triv.leg_psi))
    for kappa in _spread_kappas(
        [stratum.kappa], triv.kappa[0], range(graph.n_vertices)
    ):
        out._accumulate(
            DecoratedStratum(graph, leg_psi, stratum.edge_psi, kappa), c1 * c2
        )


def _spread_kappas(
    states: list[tuple[tuple[int, ...], ...]],
    indices: Sequence[int],
    targets: Sequence[int],
) -> list[tuple[tuple[int, ...], ...]]:
    """The multinomial expansion of restricted kappa sums: every way to add
    each kappa index of ``indices`` at one of the vertices ``targets``, to
    each per-vertex kappa state of ``states``."""
    for a in indices:
        states = [
            state[:v] + (tuple(sorted(state[v] + (a,))),) + state[v + 1 :]
            for state in states
            for v in targets
        ]
    return states


@dataclass(frozen=True)
class _ContractionStructure:
    """A realisation of a factor graph as a contraction of an ambient graph.

    ``contracted`` is the set of contracted ambient edge indices; the rest
    is a half-edge isomorphism from the quotient onto the factor, read back
    to the ambient graph: ``edge_map[f] = (ambient_edge, flipped)`` matches
    factor edge ``f`` to a surviving ambient edge (``flipped`` when the
    factor's side order lands on the ambient edge's sides in reverse), and
    ``vertex_map[v]`` is the factor vertex receiving ambient vertex ``v``.
    """

    contracted: frozenset[int]
    edge_map: tuple[tuple[int, bool], ...]
    vertex_map: tuple[int, ...]


def _contraction_structures(
    ambient: StableGraph, factor: StableGraph
) -> tuple[_ContractionStructure, ...]:
    need = ambient.n_edges - factor.n_edges
    if need < 0:
        return ()
    out: list[_ContractionStructure] = []
    for combo in itertools.combinations(range(ambient.n_edges), need):
        contracted = frozenset(combo)
        quotient, vmap, surviving = ambient.contract(contracted)
        for iso_vertices, iso_edges in _graph_isomorphisms(quotient, factor):
            # Quotient edge pos is ambient edge surviving[pos], whose sides
            # are swapped when the contraction reversed its endpoint order.
            edge_map = [(0, False)] * factor.n_edges
            for (orig, swapped), (f, flipped) in zip(surviving, iso_edges):
                edge_map[f] = (orig, flipped ^ swapped)
            vertex_map = tuple(iso_vertices[c] for c in vmap)
            out.append(
                _ContractionStructure(contracted, tuple(edge_map), vertex_map)
            )
    return tuple(out)


@lru_cache(maxsize=None)
def _structures_onto(
    factor: StableGraph,
) -> dict[StableGraph, tuple[_ContractionStructure, ...]]:
    """Every census graph carrying a contraction structure onto ``factor``,
    mapped to those structures, in census order (so by edge count)."""
    out = {}
    for ambient in _all_graphs(factor.genus, factor.n_markings):
        structures = _contraction_structures(ambient, factor)
        if structures:
            out[ambient] = structures
    return out


@lru_cache(maxsize=None)
def _all_graphs(g: int, n: int) -> tuple[StableGraph, ...]:
    return tuple(enumerate_stable_graphs(g, n))


def _multiply_boundary_terms(
    out: TautClass, s1: DecoratedStratum, c1, s2: DecoratedStratum, c2
) -> None:
    """Excess-intersection product of two boundary terms.

    The product of two stratum classes is supported on common degenerations:
    stable graphs carrying contraction structures onto both factors whose
    contracted edge sets are disjoint.  Each compatible pair contributes the
    transported decorations times the excess factor prod(-psi' - psi'')
    over edges identified in both factors, normalised by the factor
    automorphism counts (the ambient normalisation is the stored-term
    convention).
    """
    if out.dimension > PRODUCT_DIMENSION_BOUND:
        raise ProductCapabilityError(
            "products of two boundary terms are supported only for ambient "
            f"dimension <= {PRODUCT_DIMENSION_BOUND} (got {out.dimension})"
        )
    norm = aut_normalization(s1.graph) * aut_normalization(s2.graph)
    max_edges = s1.graph.n_edges + s2.graph.n_edges
    onto2 = _structures_onto(s2.graph)
    for ambient, structures1 in _structures_onto(s1.graph).items():
        if ambient.n_edges > max_edges:
            break
        structures2 = onto2.get(ambient)
        if structures2 is None:
            continue
        everything = frozenset(range(ambient.n_edges))
        for st1 in structures1:
            for st2 in structures2:
                if st1.contracted & st2.contracted:
                    continue
                # Each factor's surviving edges are everything it did not
                # contract, so the edges both factors keep are the shared ones.
                shared_edges = everything - st1.contracted - st2.contracted
                _accumulate_structure_pair(
                    out, ambient, s1, st1, s2, st2, shared_edges, c1 * c2 * norm
                )


def _accumulate_structure_pair(
    out: TautClass,
    ambient: StableGraph,
    s1: DecoratedStratum,
    st1: _ContractionStructure,
    s2: DecoratedStratum,
    st2: _ContractionStructure,
    shared_edges: frozenset[int],
    base_coeff,
) -> None:
    leg_psi = tuple(a + b for a, b in zip(s1.leg_psi, s2.leg_psi))
    edge_psi = [[0, 0] for _ in range(ambient.n_edges)]
    for stratum, structure in ((s1, st1), (s2, st2)):
        for f, (orig, flipped) in enumerate(structure.edge_map):
            p, q = stratum.edge_psi[f]
            if flipped:
                p, q = q, p
            edge_psi[orig][0] += p
            edge_psi[orig][1] += q
    # kappa transport: the kappas of factor vertex w are spread over the
    # ambient vertices mapping to w.
    kappa_states = [((),) * ambient.n_vertices]
    for stratum, structure in ((s1, st1), (s2, st2)):
        preimages: dict[int, list[int]] = {}
        for v in range(ambient.n_vertices):
            preimages.setdefault(structure.vertex_map[v], []).append(v)
        for w, ks in enumerate(stratum.kappa):
            kappa_states = _spread_kappas(kappa_states, ks, preimages[w])
    # excess factor: product over shared edges of (-psi_first - psi_second)
    shared = sorted(shared_edges)
    coeff = base_coeff * (-1) ** len(shared)
    for kappa in kappa_states:
        for sides in itertools.product((0, 1), repeat=len(shared)):
            final_edges = [list(pq) for pq in edge_psi]
            for e, side in zip(shared, sides):
                final_edges[e][side] += 1
            stratum = DecoratedStratum(
                ambient, leg_psi, tuple((p, q) for p, q in final_edges), kappa
            )
            out._accumulate(stratum, coeff)


# ---------------------------------------------------------------------------
# Forgetful pullback
# ---------------------------------------------------------------------------


def forgetful_pullback(cls: TautClass) -> TautClass:
    """Pull back along the map forgetting a new last marking.

    Over the stratum of a graph the map forgets the new marking at one
    vertex ``v``, summed over every vertex.  At ``v``,
    ``pi^* kappa_a = kappa_a - psi_new^a``, and a half-edge ``h`` with
    ``psi_h^k``, ``k > 0``, also gives ``-D_h psi'^(k-1)``: ``D_h`` is the
    genus-0 bubble holding ``h`` and the new marking, which on an edge side
    is a vertex inserted into the edge; every other decoration restricts to
    ``v``.  A piece on graph G' pushes forward from the same product of
    vertex spaces as the term on G, so it is stored with coefficient
    ``c * #Aut(G') / #Aut(G)``.
    """
    out = TautClass(cls.g, cls.n + 1)
    for stratum, coeff in cls.terms.items():
        graph, legs, leg_psi = stratum.graph, stratum.graph.legs, stratum.leg_psi
        genera, kappa = graph.genera, stratum.kappa
        records = tuple(
            (*ends, *psis) for ends, psis in zip(graph.edges, stratum.edge_psi)
        )
        bubble = graph.n_vertices
        pieces = []
        for v in range(graph.n_vertices):
            for chosen, rest in _subset_splits(kappa[v]):
                piece = _stratum(
                    genera, legs + (v,), leg_psi + (sum(chosen),), records,
                    _replace(kappa, v, rest),
                )
                pieces.append(((-1) ** len(chosen), piece))
            # A correction moves h onto the bubble, with psi^0 there.
            moves = [
                (k, _replace(legs, i, bubble), _replace(leg_psi, i, 0), records)
                for i, k in enumerate(leg_psi)
                if k and legs[i] == v
            ] + [
                (k, legs, leg_psi, _replace(records, e, moved))
                for e, (u, w, p, q) in enumerate(records)
                for k, end, moved in (
                    (p, u, (bubble, w, 0, q)),
                    (q, w, (u, bubble, p, 0)),
                )
                if k and end == v
            ]
            for k, new_legs, new_leg_psi, new_records in moves:
                piece = _stratum(
                    genera + (0,), new_legs + (bubble,), new_leg_psi + (0,),
                    new_records + ((v, bubble, k - 1, 0),), kappa + ((),),
                )
                pieces.append((-1, piece))
        for sign, piece in pieces:
            ratio = aut_normalization(graph) / aut_normalization(piece.graph)
            out._accumulate(piece, coeff * (sign * ratio))
    return out


def _replace(items: tuple, i: int, value) -> tuple:
    return items[:i] + (value,) + items[i + 1 :]


def _stratum(genera, legs, leg_psi, records, kappa) -> DecoratedStratum:
    """The decorated stratum with edge records ``(u, w, psi_u, psi_w)``,
    given in any order and either orientation."""
    records = sorted((u, w, p, q) if u <= w else (w, u, q, p) for u, w, p, q in records)
    return DecoratedStratum(
        StableGraph(genera, legs, tuple((u, w) for u, w, _p, _q in records)),
        leg_psi,
        tuple((p, q) for _u, _w, p, q in records),
        kappa,
    )


# ---------------------------------------------------------------------------
# Generators of a given degree (for pairing checks)
# ---------------------------------------------------------------------------


def generators_of_degree(
    g: int, n: int, degree: int, *, include_boundary: bool
) -> list[tuple[str, TautClass]]:
    """Labelled generators of the tautological ring in a given degree.

    Always includes all monomials in psi and kappa classes on the trivial
    graph; when ``include_boundary`` is set it also includes all decorated
    boundary strata of the given total degree.  In degree 0 the single
    generator is the fundamental class.
    """
    if degree == 0:
        return [("fundamental", fundamental(g, n))]
    out: list[tuple[str, TautClass]] = []
    for leg_psi, kappas in _trivial_decorations(n, degree):
        stratum = DecoratedStratum(trivial_graph(g, n), leg_psi, (), (kappas,))
        label_parts = [
            f"psi_{i+1}^{k}" if k > 1 else f"psi_{i+1}"
            for i, k in enumerate(leg_psi)
            if k
        ] + [f"kappa_{a}" for a in kappas]
        out.append(("*".join(label_parts), TautClass(g, n, {stratum: Fraction(1)})))
    if include_boundary:
        for graph in _all_graphs(g, n):
            if graph.n_edges == 0 or graph.n_edges > degree:
                continue
            extra = degree - graph.n_edges
            for stratum in _decorated_strata(graph, extra):
                label = _stratum_label(stratum)
                out.append((label, TautClass(g, n, {stratum: Fraction(1)})))
    # Deduplicate canonically-equal generators (decorations equivalent under
    # automorphisms produce the same class).
    seen: set[tuple] = set()
    unique: list[tuple[str, TautClass]] = []
    for label, cls in out:
        key = tuple(sorted((s, str(c)) for s, c in cls.terms.items()))
        if key in seen:
            continue
        seen.add(key)
        unique.append((label, cls))
    return unique


def _trivial_decorations(
    n: int, degree: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    for psi_total in range(degree + 1):
        kappa_total = degree - psi_total
        for leg_psi in _compositions(psi_total, n):
            for kappas in _partitions(kappa_total):
                yield leg_psi, kappas


def _partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into parts >= 1, as sorted tuples."""
    if total == 0:
        yield ()
        return
    if max_part is None:
        max_part = total
    for part in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - part, part):
            yield rest + (part,)


def _decorated_strata(graph: StableGraph, extra: int) -> Iterator[DecoratedStratum]:
    n = graph.n_markings
    e = graph.n_edges
    k = graph.n_vertices
    slots = n + 2 * e
    for split in _compositions(extra, slots + 1):
        deco, kappa_total = split[:slots], split[slots]
        leg_psi = deco[:n]
        edge_psi = tuple(
            (deco[n + 2 * j], deco[n + 2 * j + 1]) for j in range(e)
        )
        for kappa_split in _compositions(kappa_total, k):
            for kappa_parts in itertools.product(
                *[_partitions(t) for t in kappa_split]
            ):
                yield DecoratedStratum(graph, leg_psi, edge_psi, kappa_parts).canonical()


def _stratum_label(stratum: DecoratedStratum) -> str:
    graph = stratum.graph
    bits = [
        "stratum[g=" + ",".join(str(x) for x in graph.genera)
        + ";legs=" + ",".join(str(x) for x in graph.legs)
        + ";edges=" + ";".join(f"{u}-{v}" for u, v in graph.edges)
    ]
    if any(stratum.leg_psi):
        bits.append("legpsi=" + ",".join(str(x) for x in stratum.leg_psi))
    if any(p or q for p, q in stratum.edge_psi):
        bits.append("edgepsi=" + ";".join(f"{p},{q}" for p, q in stratum.edge_psi))
    if any(stratum.kappa):
        bits.append(
            "kappa=" + ";".join(",".join(str(a) for a in ks) for ks in stratum.kappa)
        )
    return "|".join(bits) + "]"
