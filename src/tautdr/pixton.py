"""Ramification classes with modulus parameter r and their constant terms.

For a genus g, a vector A of n integers summing to zero, a degree d and a
large enough modulus r, :func:`pixton_class` assembles the degree-d part
of the standard weighted sum over stable graphs and weightings mod r:

* each leg i contributes exp(a_i^2 psi_i / 2), i.e. a factor
  a_i^(2k) / (2^k k!) for psi-power k;
* each edge with side weights w, r - w contributes the expansion of
  (1 - exp(-w(r-w)(psi' + psi'')/2)) / (psi' + psi''), whose
  (psi' + psi'')-power (j-1) has coefficient (-1)^(j+1) (w(r-w))^j / (2^j j!);
* each graph is weighted by r^(-h1) and the stored-term convention carries
  the 1/#Aut factor.

The weighting sums do not enumerate the r^h1 weightings: a component of
k coupled cycle variables costs r^(k-1) one-variable closed forms (see
:mod:`tautdr.weightsums`), so one free variable costs the same for any r.
The class is a sum over weighting blocks, one per graph and edge
exponent profile: the block's scalar factor r^(-h1) T(profile) times a
fixed list of strata with rational structural coefficients.  For r
greater than an explicit bound every block factor agrees with a
polynomial in r of degree at most 2d (JPPZ, arXiv:1602.04705).
:func:`r_polynomial` interpolates each block factor exactly at 2d+3
consecutive admissible values, checks the degree bound and the factor
computed directly at three more held-out values, raising on any failure,
and then builds the class once with polynomial coefficients.  The class
is linear in the block factors, so these per-block checks imply the same
checks for every stratum coefficient.  The constant term (value at
r = 0) of the degree-g polynomial class is the double ramification cycle
:func:`dr_cycle`.

:func:`vanishing_check` pairs the constant term in degree d > g against
generators of the complementary degree and reports whether all pairings
vanish exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .intersection import (
    PRODUCT_DIMENSION_BOUND,
    DecoratedStratum,
    TautClass,
    _all_graphs,
    generators_of_degree,
)
from .qpoly import QPoly, newton_interpolate
from .stable_graphs import StableGraph, _compositions
from .weightsums import weighting_power_sums

__all__ = [
    "PolynomialityError",
    "HeldOutMismatchError",
    "admissible_r_bound",
    "pixton_class",
    "RPolynomialClass",
    "r_polynomial",
    "constant_term",
    "dr_cycle",
    "vanishing_check",
]


class PolynomialityError(ArithmeticError):
    """Raised when an interpolated block factor exceeds the expected degree."""


class HeldOutMismatchError(ArithmeticError):
    """Raised when an interpolated block factor disagrees with the factor
    computed directly at a held-out modulus."""


def _validate_problem(g: int, A: Sequence[int], d: int) -> None:
    n = len(A)
    if g < 0 or d < 0:
        raise ValueError("genus and degree must be nonnegative")
    if any(int(a) != a for a in A):
        raise ValueError("the ramification vector must have integer entries")
    if sum(A) != 0:
        raise ValueError("the ramification vector must sum to zero")
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"({g}, {n}) is not a stable type")


def admissible_r_bound(A: Sequence[int], d: int) -> int:
    """Moduli r strictly above this bound are admissible for degree d."""
    max_abs = max((abs(a) for a in A), default=0)
    return d * max(1, max_abs) + sum(abs(a) for a in A) + 2


_Blocks = dict[
    tuple[StableGraph, tuple[int, ...]], list[tuple[DecoratedStratum, Fraction]]
]


@lru_cache(maxsize=None)
def _build_template(g: int, A: tuple[int, ...], d: int) -> _Blocks:
    """Structural data of the class, independent of the modulus r.

    Maps each weighting block (graph, edge exponent profile) to a list of
    (canonical stratum, structural coefficient); the r-dependent factor of
    a block is r^(-h1) times the weighting power sum of the profile.  The
    blocks of one graph are consecutive, graphs in census order.
    """
    n = len(A)
    blocks: _Blocks = {}
    support = [i for i, a in enumerate(A) if a != 0]
    for graph in _all_graphs(g, n):
        n_edges = graph.n_edges
        # psi exponents on the legs with a_i != 0; the last part of each
        # composition is what is left for the edges
        for *parts, rest in _compositions(d - n_edges, len(support) + 1):
            leg_vec = [0] * n
            for i, k in zip(support, parts):
                leg_vec[i] = k
            leg_vec = tuple(leg_vec)
            leg_coeff = Fraction(1)
            for i, k in enumerate(leg_vec):
                if k:
                    leg_coeff *= Fraction(A[i] ** (2 * k), 2**k * factorial(k))
            # positive edge exponents summing to the rest of the degree
            for shifted in _compositions(rest, n_edges):
                profile = tuple(j + 1 for j in shifted)
                edge_coeff = Fraction(1)
                for j in profile:
                    sign = 1 if (j + 1) % 2 == 0 else -1
                    edge_coeff *= Fraction(sign, 2**j * factorial(j))
                block = blocks.setdefault((graph, profile), [])
                # each edge's power j split into side exponents a + b = j - 1
                for splits in itertools.product(
                    *(_compositions(j - 1, 2) for j in profile)
                ):
                    split_coeff = 1
                    for j, (alpha, _beta) in zip(profile, splits):
                        split_coeff *= comb(j - 1, alpha)
                    stratum = DecoratedStratum(
                        graph, leg_vec, splits, ((),) * graph.n_vertices
                    ).canonical()
                    block.append(
                        (stratum, leg_coeff * edge_coeff * split_coeff)
                    )
    return blocks


def pixton_class(g: int, A: Sequence[int], d: int, r: int) -> TautClass:
    """The degree-d part of the r-parametrised class, at a specific modulus.

    Requires ``r > admissible_r_bound(A, d)`` so that the coefficients lie
    in the polynomial regime.
    """
    _validate_problem(g, A, d)
    A = tuple(int(a) for a in A)
    bound = admissible_r_bound(A, d)
    if r <= bound:
        raise ValueError(
            f"modulus {r} is not admissible for this problem (needs r > {bound})"
        )
    return _evaluate_template(g, A, _build_template(g, A, d), r)


def _block_factors(
    template: _Blocks, A: tuple[int, ...], moduli: Sequence[int]
) -> list[tuple[Fraction, ...]]:
    """The factor r^(-h1) T(profile) of every block at each modulus, in the
    order of ``template``.

    The weighting sums of one graph are taken in one call for all moduli,
    so the r-independent edge forms are computed once per graph.
    """
    factors: list[tuple[Fraction, ...]] = []
    for graph, blocks in itertools.groupby(template, key=lambda block: block[0]):
        profiles = [profile for _graph, profile in blocks]
        sums = weighting_power_sums(graph, A, moduli, profiles)
        weighting_counts = [r**graph.h1 for r in moduli]
        for profile in profiles:
            factors.append(
                tuple(
                    Fraction(total, count)
                    for total, count in zip(sums[profile], weighting_counts)
                )
            )
    return factors


def _evaluate_template(
    g: int, A: tuple[int, ...], template: _Blocks, r: int
) -> TautClass:
    out = TautClass(g, len(A))
    for strata, (factor,) in zip(template.values(), _block_factors(template, A, [r])):
        if factor == 0:
            continue
        for stratum, coeff in strata:
            out._accumulate(stratum, coeff * factor)
    return out


@dataclass
class RPolynomialClass:
    """A tautological class with coefficients polynomial in the modulus r."""

    taut: TautClass  # coefficients are QPoly in r
    samples: list[int]
    held_out: list[int]

    def at(self, r: int) -> TautClass:
        return self.taut.evaluate_poly_coefficients(r)


def r_polynomial(
    g: int, A: Sequence[int], d: int, samples: Sequence[int] | None = None
) -> RPolynomialClass:
    """Interpolate the class coefficients as exact polynomials in r.

    Computes the factor r^(-h1) T(profile) of every weighting block at
    2d+3 consecutive admissible moduli and at three further held-out
    moduli.  Each block factor is interpolated at the samples (blocks with
    equal values share one interpolant), must have degree at most 2d in r
    and must match the directly computed factor at every held-out modulus.
    The class is then summed once, block factor times the block's strata.
    A degree overflow raises :class:`PolynomialityError`; a held-out
    disagreement raises :class:`HeldOutMismatchError`.

    An explicit ``samples`` list (at least 2d+3 distinct admissible moduli)
    overrides the default schedule; held-out moduli are then taken just
    above its maximum.
    """
    _validate_problem(g, A, d)
    A = tuple(int(a) for a in A)
    bound = admissible_r_bound(A, d)
    if samples is None:
        r0 = bound + 1
        samples = [r0 + i for i in range(2 * d + 3)]
        held_out = [r0 + 2 * d + 3 + i for i in range(3)]
    else:
        samples = sorted({int(r) for r in samples})
        if len(samples) < 2 * d + 3:
            raise ValueError(
                f"need at least {2 * d + 3} distinct sample moduli for degree {d}"
            )
        if samples[0] <= bound:
            raise ValueError(
                f"sample moduli must exceed the admissibility bound {bound}"
            )
        held_out = [samples[-1] + 1 + i for i in range(3)]
    template = _build_template(g, A, d)
    factors = _block_factors(template, A, samples + held_out)
    # Blocks with equal values share one interpolant and one check.
    interpolants: dict[tuple[Fraction, ...], QPoly] = {}
    taut = TautClass(g, len(A))
    for strata, values in zip(template.values(), factors):
        poly = interpolants.get(values)
        if poly is None:
            poly = newton_interpolate(list(zip(samples, values)))
            if poly.degree > 2 * d:
                raise PolynomialityError(
                    f"block factor degree {poly.degree} exceeds the bound {2 * d}"
                )
            for r, value in zip(held_out, values[len(samples):]):
                if poly(r) != value:
                    raise HeldOutMismatchError(
                        f"interpolated block factor disagrees with the direct "
                        f"weighting sum at r={r}"
                    )
            interpolants[values] = poly
        if poly:
            for stratum, coeff in strata:
                taut._accumulate(stratum, poly * coeff)
    return RPolynomialClass(taut, samples, held_out)


def constant_term(cls: "RPolynomialClass | TautClass") -> TautClass:
    """The r^0 part: evaluate every polynomial coefficient at r = 0."""
    taut = cls.taut if isinstance(cls, RPolynomialClass) else cls
    return taut.evaluate_poly_coefficients(0)


def dr_cycle(g: int, A: Sequence[int]) -> TautClass:
    """The double ramification cycle: constant term in degree d = g."""
    return constant_term(r_polynomial(g, A, g))


def vanishing_check(
    g: int, A: Sequence[int], d: int, samples: Sequence[int] | None = None
) -> dict:
    """Pair the degree-d constant term against complementary generators.

    Returns a report with the polynomial class, its constant term, the list
    of pairings [generator label, exact value] and a verdict:

    * ``"pairing-null"``  -- every pairing vanishes (the full generator set
      in the complementary degree was available);
    * ``"FAIL"``          -- some pairing is nonzero;
    * ``"incomplete"``    -- all available pairings vanish but boundary
      generators were out of range for products; the report then carries
      a ``"skipped"`` entry saying which generators were left out and why.
    """
    _validate_problem(g, A, d)
    A = tuple(int(a) for a in A)
    rp = r_polynomial(g, A, d, samples=samples)
    const = constant_term(rp)
    n = len(A)
    dim = 3 * g - 3 + n
    c = dim - d
    pairings: list[tuple[str, Fraction]] = []
    incomplete = False
    if c >= 0:
        include_boundary = dim <= PRODUCT_DIMENSION_BOUND
        if c >= 1 and not include_boundary:
            incomplete = True
        for label, gen in generators_of_degree(
            g, n, c, include_boundary=include_boundary
        ):
            pairings.append((label, const.pair(gen)))
    if any(value != 0 for _label, value in pairings):
        verdict = "FAIL"
    elif incomplete:
        verdict = "incomplete"
    else:
        verdict = "pairing-null"
    report = _dr_report(g, A, d, rp, const, pairings, verdict)
    if verdict == "incomplete":
        report["skipped"] = (
            f"boundary generators of degree {c}: dimension {dim} exceeds "
            f"PRODUCT_DIMENSION_BOUND = {PRODUCT_DIMENSION_BOUND}"
        )
    return report


def _dr_report(g, A, d, rp, const, pairings=(), verdict="not-applicable") -> dict:
    """The report of one ``dr`` problem: the polynomial class ``rp``, its
    constant term ``const`` (with its integral in top degree), the
    ``(label, value)`` pairings and the verdict."""
    integral = const.integrate() if d == 3 * g - 3 + len(A) else None
    return {
        "problem": {"g": g, "A": list(A), "d": d},
        "samples": list(rp.samples),
        "class": rp.taut.to_json_obj(),
        "constant_term": const.to_json_obj(),
        "constant_term_integral": None if integral is None else str(integral),
        "pairings": [[label, str(value)] for label, value in pairings],
        "verdict": verdict,
    }
