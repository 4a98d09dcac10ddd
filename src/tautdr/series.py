"""Laurent-series algebra for the localization classes of gluing graphs.

The rigid side contributes the series t/(t+Psi); each rubber vertex
contributes

    sum_{l >= g} c(l - g) * t^(g + rho_inf - 1 - l)
    -------------------------------------------------
    prod_e ((t + evD_e)/d_e - psibar_e)

where ``rho_inf`` counts the vertex's infinity-end half-edges (node and
marking type), ``c(l) = sum_j (-1)^j Psi_inf^(l-j) sigma_j`` and ``sigma_j``
is the elementary symmetric polynomial in the quantities
``d_e*psibar_e - evD_e``.  The half-edge sets feeding ``sigma_j`` and the
denominator product are configurable ("node" keeps node-type half-edges
only, "infty" adds the marking-type ones); the choice is recorded in every
assembled result.

All symbols (Psi on the rigid factor, Psi_inf per rubber vertex, psibar and
evD per half-edge) are opaque commuting generators with exact rational
coefficients; no pushforward evaluation is attempted.  Series carry an
explicit validity threshold: coefficients of t-powers below ``min_valid``
have been discarded, and every product tracks how far the result remains
exact.  The assembly expands each factor only as deep as can still reach
t^0 and drops every exponent that the factors still to come cannot lift to
t^0.  Extracting the constant term re-runs the assembly at a deeper
truncation and demands agreement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .bipartite import BipartiteGraph


__all__ = [
    "TruncationError",
    "SymMonomial",
    "SymPoly",
    "LaurentSeries",
    "c_gamma_infty",
    "c_gamma0",
    "rubber_vertex_series",
    "assemble_t0",
    "AssembledT0",
]

HALF_EDGE_SETS = ("node", "infty")


class TruncationError(RuntimeError):
    """A series was requested or combined beyond its exact range."""


@dataclass(frozen=True)
class SymMonomial:
    """Product of opaque symbols: Psi^k, Psi_inf powers, psibar/evD powers.

    ``psi_inf`` maps rubber-vertex indices to exponents; ``psibar`` and
    ``evd`` map half-edge keys ("e", edge index) or ("m", label) to
    exponents.  All maps are stored as sorted tuples with repeated keys
    summed and zero exponents dropped, so equal monomials compare equal.
    """

    psi: int = 0
    psi_inf: tuple = ()
    psibar: tuple = ()
    evd: tuple = ()

    @staticmethod
    def make(psi=0, psi_inf=(), psibar=(), evd=()):
        return SymMonomial(psi, _merged(psi_inf), _merged(psibar), _merged(evd))

    def __mul__(self, other):
        return SymMonomial(
            self.psi + other.psi,
            _merged(self.psi_inf, other.psi_inf),
            _merged(self.psibar, other.psibar),
            _merged(self.evd, other.evd),
        )


def _merged(*pair_lists):
    """Sorted (key, exponent) pairs with repeated keys summed, zeros dropped."""
    acc = {}
    for pairs in pair_lists:
        for k, p in pairs:
            acc[k] = acc.get(k, 0) + p
    return tuple(sorted((k, p) for k, p in acc.items() if p))


_ONE = SymMonomial()


class SymPoly:
    """Finite rational combination of :class:`SymMonomial` values."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                acc[mono] = acc.get(mono, Fraction(0)) + coeff
                if not acc[mono]:
                    del acc[mono]
        self.terms = acc

    @staticmethod
    def zero():
        return SymPoly()

    @staticmethod
    def one():
        return SymPoly({_ONE: Fraction(1)})

    @staticmethod
    def scalar(value):
        return SymPoly({_ONE: Fraction(value)})

    @staticmethod
    def symbol(**kwargs):
        return SymPoly({SymMonomial.make(**kwargs): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
            if not acc[mono]:
                del acc[mono]
        out = SymPoly()
        out.terms = acc
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, value):
        value = Fraction(value)
        out = SymPoly()
        out.terms = {m: c * value for m, c in self.terms.items()} if value else {}
        return out

    def __mul__(self, other):
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
                if not acc[m]:
                    del acc[m]
        out = SymPoly()
        out.terms = acc
        return out

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        bits = []
        for mono, coeff in sorted(
            self.terms.items(), key=lambda item: repr(item[0])
        ):
            bits.append(f"{coeff}*{mono}")
        return "SymPoly(" + " + ".join(bits) + ")"


class LaurentSeries:
    """Map t-exponent -> SymPoly, exact for all exponents >= min_valid.

    ``min_valid=None`` marks an exact series (nothing was discarded).
    Multiplication propagates the validity threshold: a product coefficient
    is kept only where every contributing coefficient of both factors was
    retained.
    """

    __slots__ = ("coeffs", "min_valid")

    def __init__(self, coeffs=None, min_valid=None):
        self.coeffs = {}
        for exp, poly in (coeffs or {}).items():
            if isinstance(poly, (int, Fraction)):
                poly = SymPoly.scalar(poly)
            if not poly.is_zero():
                self.coeffs[exp] = poly
        self.min_valid = min_valid
        if min_valid is not None:
            self.coeffs = {e: p for e, p in self.coeffs.items() if e >= min_valid}

    @staticmethod
    def one():
        return LaurentSeries({0: SymPoly.one()})

    def max_exp(self):
        return max(self.coeffs) if self.coeffs else None

    def coefficient(self, exp):
        if self.min_valid is not None and exp < self.min_valid:
            raise TruncationError(
                f"coefficient of t^{exp} was discarded (valid from t^{self.min_valid})"
            )
        return self.coeffs.get(exp, SymPoly.zero())

    def __mul__(self, other):
        # a truncated zero may still be non-zero below its window, so its
        # threshold bounds its exponents from above
        max_self = self.max_exp() if self.coeffs else self.min_valid
        max_other = other.max_exp() if other.coeffs else other.min_valid
        if max_self is None or max_other is None:
            return LaurentSeries({}, None)  # an exact zero factor
        if self.min_valid is None and other.min_valid is None:
            min_valid = None
        else:
            candidates = []
            if self.min_valid is not None:
                candidates.append(self.min_valid + max_other)
            if other.min_valid is not None:
                candidates.append(other.min_valid + max_self)
            min_valid = max(candidates)
        acc = {}
        for e1, p1 in self.coeffs.items():
            for e2, p2 in other.coeffs.items():
                e = e1 + e2
                if min_valid is not None and e < min_valid:
                    continue
                prod = p1 * p2
                if prod.is_zero():
                    continue
                acc[e] = acc.get(e, SymPoly.zero()) + prod
        return LaurentSeries(acc, min_valid)

    def __add__(self, other):
        if self.min_valid is None:
            min_valid = other.min_valid
        elif other.min_valid is None:
            min_valid = self.min_valid
        else:
            min_valid = max(self.min_valid, other.min_valid)
        acc = dict(self.coeffs)
        for e, p in other.coeffs.items():
            acc[e] = acc.get(e, SymPoly.zero()) + p
        return LaurentSeries(acc, min_valid)

    def __repr__(self):
        exps = sorted(self.coeffs, reverse=True)
        return (
            "LaurentSeries("
            + ", ".join(f"t^{e}: {self.coeffs[e]!r}" for e in exps)
            + f"; valid from {self.min_valid})"
        )


def c_gamma_infty(truncation):
    """The rigid-side factor t/(t+Psi) expanded to order t^(-truncation)."""
    if truncation < 0:
        raise TruncationError("truncation depth must be non-negative")
    minus_psi = SymPoly.symbol(psi=1).scale(-1)
    coeffs = {}
    term = SymPoly.one()
    for k in range(truncation + 1):
        coeffs[-k] = term
        term = term * minus_psi
    return LaurentSeries(coeffs, -truncation)


def _elementary_symmetric(elements):
    """List [sigma_0, sigma_1, ...] for the given SymPoly elements."""
    sigma = [SymPoly.one()]
    for el in elements:
        nxt = [SymPoly.zero()] * (len(sigma) + 1)
        for k, val in enumerate(sigma):
            nxt[k] = nxt[k] + val
            nxt[k + 1] = nxt[k + 1] + val * el
        sigma = nxt
    return sigma


def _resolve_sets(node_edges, marking_edges, chosen):
    if chosen not in HALF_EDGE_SETS:
        raise NotImplementedError(
            f"half-edge set {chosen!r} is not supported (options: {HALF_EDGE_SETS})"
        )
    if chosen == "node":
        return list(node_edges)
    return list(node_edges) + list(marking_edges)


def c_gamma0(
    genus,
    node_edges,
    marking_edges,
    truncation,
    vertex=0,
    sigma_set="node",
    denominator_set="node",
):
    """Series of one rubber vertex, exact down to t^(-truncation).

    ``node_edges`` lists ``(edge_index, degree)`` for the node-type
    infinity-end half-edges; ``marking_edges`` lists ``(label, contact
    order)`` for the marking-type ones.  ``vertex`` names the Psi_inf symbol.
    """
    if truncation < 0:
        raise TruncationError("truncation depth must be non-negative")
    node_keys = [(("e", idx), d) for idx, d in node_edges]
    mark_keys = [(("m", label), d) for label, d in marking_edges]
    for _, d in node_keys + mark_keys:
        if d < 1:
            raise ValueError("half-edge degrees must be positive")
    rho_inf = len(node_keys) + len(mark_keys)

    denom_keys = _resolve_sets(node_keys, mark_keys, denominator_set)
    sigma_keys = _resolve_sets(node_keys, mark_keys, sigma_set)

    # top numerator power is t^(rho_inf - 1); each denominator factor
    # lowers the maximal exponent by one
    max_exp = rho_inf - 1 - len(denom_keys)
    # the numerator and every inverse denominator factor are expanded
    # ``depth`` terms below their tops: a deeper term lands below
    # t^(-truncation) even when it meets the other factors' tops
    depth = truncation + max_exp
    if depth < 0:
        raise TruncationError(
            "requested window lies above every term of the series"
        )

    def shifted(key, d):
        # d*psibar - evD for one half-edge
        return SymPoly.symbol(psibar=((key, 1),)).scale(d) - SymPoly.symbol(
            evd=((key, 1),)
        )

    sigma = _elementary_symmetric([shifted(k, d) for k, d in sigma_keys])
    psi_inf = SymPoly.symbol(psi_inf=((vertex, 1),))

    # numerator: sum over l >= genus of c(l - genus) t^(genus + rho_inf - 1 - l),
    # i.e. c(m) t^(rho_inf - 1 - m); the genus cancels.  The recursion
    # c(m) = Psi_inf c(m - 1) + (-1)^m sigma_m unrolls the defining sum.
    num_coeffs = {}
    c = SymPoly.zero()
    for m in range(depth + 1):
        c = c * psi_inf
        if m < len(sigma):
            c = c + sigma[m].scale((-1) ** m)
        num_coeffs[rho_inf - 1 - m] = c
    series = LaurentSeries(num_coeffs, rho_inf - 1 - depth)

    for key, d in denom_keys:
        # 1 / ((t + evD)/d - psibar) = (d/t) * sum_k ((d*psibar - evD)/t)^k
        base = shifted(key, d)
        inv_coeffs = {}
        term = SymPoly.scalar(d)
        for k in range(depth + 1):
            inv_coeffs[-1 - k] = term
            term = term * base
        series = series * LaurentSeries(inv_coeffs, -1 - depth)
    return series


def rubber_vertex_series(
    graph, vertex_index, truncation, sigma_set="node", denominator_set="node"
):
    """c_gamma0 for one rubber vertex of a :class:`BipartiteGraph`."""
    v = graph.side0[vertex_index]
    node_edges = [
        (idx, d)
        for idx, (i0, _, d) in enumerate(graph.edges)
        if i0 == vertex_index
    ]
    marking_edges = [(label, -w) for label, w in v.neg_roots]
    return c_gamma0(
        v.genus,
        node_edges,
        marking_edges,
        truncation,
        vertex=vertex_index,
        sigma_set=sigma_set,
        denominator_set=denominator_set,
    )


@dataclass(frozen=True)
class AssembledT0:
    """Constant term of the assembled localization product.

    ``sigma_set`` and ``denominator_set`` record which half-edge sets were
    used; ``truncation`` is the depth at which the result stabilized.
    """

    poly: SymPoly
    sigma_set: str
    denominator_set: str
    truncation: int
    rubber_vertices: int = 1

    def to_json_obj(self, single_rubber=None):
        if single_rubber is None:
            single_rubber = self.rubber_vertices <= 1
        monos = []
        for mono, coeff in self.poly.terms.items():
            if single_rubber:
                psi_inf = sum(p for _, p in mono.psi_inf)
            else:
                psi_inf = {str(v): p for v, p in mono.psi_inf}
            monos.append(
                {
                    "Psi": mono.psi,
                    "Psi_inf": psi_inf,
                    "psibar": {_half_edge_key(k): p for k, p in mono.psibar},
                    "evD": {_half_edge_key(k): p for k, p in mono.evd},
                    "coeff": f"{coeff.numerator}/{coeff.denominator}",
                }
            )
        monos.sort(key=lambda m: (m["Psi"], str(m["Psi_inf"]), str(m["psibar"]), str(m["evD"])))
        return {
            "sigma_set": self.sigma_set,
            "denominator_set": self.denominator_set,
            "truncation": self.truncation,
            "monomials": monos,
        }


def _half_edge_key(key):
    kind, value = key
    return str(value) if kind == "e" else f"m{value}"


def _factors(graph, sigma_set, denominator_set):
    """``(top t-exponent, series at a given truncation)`` for each factor of
    the localization product: the rigid factor t/(t+Psi) if the rigid side
    is non-empty, then each rubber vertex."""
    factors = [(0, c_gamma_infty)] if graph.side_inf else []
    for i, v in enumerate(graph.side0):
        node_count = sum(1 for i0, _, _ in graph.edges if i0 == i)
        rho_inf = node_count + len(v.neg_roots)
        denom = node_count if denominator_set == "node" else rho_inf
        series_at = functools.partial(
            rubber_vertex_series,
            graph,
            i,
            sigma_set=sigma_set,
            denominator_set=denominator_set,
        )
        factors.append((rho_inf - 1 - denom, series_at))
    return factors


def _assemble_at(graph, truncation, sigma_set, denominator_set):
    """t^0 of the product, each factor expanded only as deep as t^0 needs.

    A factor with top exponent ``top`` reaches t^0 only through its terms
    down to t^(top - total), ``total`` being the sum of the tops; after each
    multiplication the exponents that the remaining factors' tops cannot
    lift to 0 are dropped.  A too shallow ``truncation`` still leaves the
    product's window above t^0, so :meth:`LaurentSeries.coefficient` raises.
    """
    factors = _factors(graph, sigma_set, denominator_set)
    remaining = sum(top for top, _ in factors)
    # with a negative total every factor still yields its top term, so
    # that its own window checks run; t^0 then comes out exactly zero
    reach = max(remaining, 0)
    product = LaurentSeries.one()
    for top, series_at in factors:
        remaining -= top
        product = product * series_at(min(truncation, reach - top))
        product = LaurentSeries(product.coeffs, max(product.min_valid, -remaining))
    return product.coefficient(0)


def assemble_t0(graph, sigma_set="node", denominator_set="node", truncation=None):
    """Constant term in t of the graph's localization product.

    The truncation depth is derived from the rubber vertices' maximal
    positive t-powers; the extraction is re-run two orders deeper and must
    agree, otherwise a :class:`TruncationError` is raised.
    """
    if not isinstance(graph, BipartiteGraph):
        raise TypeError("assemble_t0 expects a BipartiteGraph")
    if truncation is None:
        truncation = 2 + sum(
            max(0, top) for top, _ in _factors(graph, sigma_set, denominator_set)
        )
    first = _assemble_at(graph, truncation, sigma_set, denominator_set)
    second = _assemble_at(graph, truncation + 2, sigma_set, denominator_set)
    if first != second:
        raise TruncationError(
            "constant term did not stabilize under deeper truncation"
        )
    return AssembledT0(
        first, sigma_set, denominator_set, truncation, len(graph.side0)
    )
