"""Weighted-graph classes, their polynomial dependence on the modulus,
constant terms, and the vanishing pairing harness."""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from oracles import per_stratum_r_polynomial
from tautdr import (
    StableGraph,
    dr_cycle,
    fundamental,
    pixton_class,
    psi_class,
    r_polynomial,
    stratum_class,
    vanishing_check,
)
from tautdr.pixton import (
    HeldOutMismatchError,
    PolynomialityError,
    admissible_r_bound,
    constant_term,
)
from tautdr import intersection, pixton, weightsums
from tautdr.intersection import PRODUCT_DIMENSION_BOUND
from tautdr.qpoly import QPoly


def coeff_of(cls, unit_class):
    """Coefficient in ``cls`` of the single stored term of ``unit_class``."""
    (key,) = unit_class.terms
    return cls.terms.get(key, 0)


def boundary_pair(i, j):
    legs = tuple(1 if m in (i, j) else 0 for m in (1, 2, 3, 4))
    return stratum_class(StableGraph((0, 0), legs, ((0, 1),)))


LOOP = StableGraph((0,), (0,), ((0, 0),))


@pytest.mark.parametrize("r", [5, 7, 11, 13, 101])
def test_elliptic_zero_vector_is_node_stratum_multiple(r):
    cls = pixton_class(1, (0,), 1, r)
    # Stored-term convention: the stored coefficient is (r^2-1)/12 against
    # the 1/|Aut|-normalized stratum, i.e. the cycle (r^2-1)/24 times the
    # plain pushforward of the node locus.
    assert cls == stratum_class(LOOP).scale(Fraction(r * r - 1, 12))
    assert cls.integrate() == Fraction(r * r - 1, 24)


@pytest.mark.parametrize("r", [7, 11, 23, 47, 1009])
def test_four_point_coefficients(r):
    cls = pixton_class(0, (1, -1, 0, 0), 1, r)
    assert coeff_of(cls, psi_class(0, 4, 1)) == Fraction(1, 2)
    assert coeff_of(cls, psi_class(0, 4, 2)) == Fraction(1, 2)
    assert coeff_of(cls, psi_class(0, 4, 3)) == 0
    assert coeff_of(cls, psi_class(0, 4, 4)) == 0
    assert coeff_of(cls, boundary_pair(1, 3)) == Fraction(r - 1, 2)
    assert coeff_of(cls, boundary_pair(1, 4)) == Fraction(r - 1, 2)
    assert coeff_of(cls, boundary_pair(1, 2)) == 0


def test_admissibility_guard():
    bound = admissible_r_bound((0,), 1)
    with pytest.raises(ValueError):
        pixton_class(1, (0,), 1, bound)
    assert pixton_class(1, (0,), 1, bound + 1) is not None


def test_r_polynomial_coefficients_are_polynomials():
    rp = r_polynomial(1, (0,), 1)
    (term,) = rp.taut.terms
    assert term.graph.edges == ((0, 0),)
    assert rp.taut.terms[term] == QPoly([Fraction(-1, 12), 0, Fraction(1, 12)])
    # evaluating the interpolated polynomial reproduces direct builds
    for r in (11, 17):
        assert rp.taut.evaluate_poly_coefficients(r) == pixton_class(1, (0,), 1, r)


# one weight vector per (g, n) type of the check-4 grid
BLOCK_ROUTE_TYPES = [
    (0, (2, -1, -1)),
    (0, (1, 1, -1, -1)),
    (0, (2, 1, 0, -1, -2)),
    (0, (1, 1, 0, 0, -1, -1)),
    (1, (0,)),
    (1, (2, -2)),
    (1, (2, -1, -1)),
    (2, ()),
]


BLOCK_ROUTE_PROBLEMS = [
    (g, A, d) for g, A in BLOCK_ROUTE_TYPES for d in range(4)
] + [(2, (1, -1), 3), (3, (0,), 3)]


@pytest.mark.parametrize(
    "problem",
    BLOCK_ROUTE_PROBLEMS,
    ids=[f"{g};{','.join(map(str, A))};{d}" for g, A, d in BLOCK_ROUTE_PROBLEMS],
)
def test_block_interpolation_matches_per_stratum_route(problem):
    assert r_polynomial(*problem).taut == per_stratum_r_polynomial(*problem)


@pytest.mark.parametrize(
    "offset,error",
    [
        (2 * 2 + 3, HeldOutMismatchError),  # the first held-out modulus
        (2, PolynomialityError),  # a sample modulus
    ],
    ids=["held-out", "sample"],
)
def test_block_checks_catch_one_wrong_factor(monkeypatch, offset, error):
    g, A, d = 1, (1, -1), 2
    modulus = admissible_r_bound(A, d) + 1 + offset
    weighting_power_sums = pixton.weighting_power_sums
    perturbed = []

    def off_by_one(graph, leg_values, moduli, profiles):
        # raise the factor r^(-h1) T of the first block by exactly 1
        sums = weighting_power_sums(graph, leg_values, moduli, profiles)
        if not perturbed:
            profile = next(iter(sums))
            sums[profile][list(moduli).index(modulus)] += modulus**graph.h1
            perturbed.append(profile)
        return sums

    monkeypatch.setattr(pixton, "weighting_power_sums", off_by_one)
    with pytest.raises(error):
        r_polynomial(g, A, d)
    assert len(perturbed) == 1


def test_edge_forms_are_found_once_per_graph(monkeypatch):
    # the forms do not depend on r, so one r_polynomial call needs them
    # once per graph, not once per modulus
    calls = Counter()
    edge_weight_forms = weightsums.edge_weight_forms

    def counting(graph, leg_values):
        calls[graph] += 1
        return edge_weight_forms(graph, leg_values)

    monkeypatch.setattr(weightsums, "edge_weight_forms", counting)
    r_polynomial(1, (1, -1, 0), 2)
    assert calls and set(calls.values()) == {1}


def test_r_polynomial_accepts_explicit_samples():
    base = r_polynomial(1, (1, -1), 2)
    bound = admissible_r_bound((1, -1), 2)
    samples = [bound + k for k in (1, 2, 3, 5, 8, 13, 21, 34)]
    again = r_polynomial(1, (1, -1), 2, samples=samples)
    assert base.taut == again.taut


def test_r_polynomial_sample_validation():
    with pytest.raises(ValueError):
        r_polynomial(1, (0,), 1, samples=[5, 6])  # too few
    bound = admissible_r_bound((0,), 1)
    with pytest.raises(ValueError):
        r_polynomial(1, (0,), 1, samples=[bound - 1 + k for k in range(7)])


def test_problem_validation():
    with pytest.raises(ValueError):
        r_polynomial(0, (1, 1), 0)  # contact orders must sum to zero
    with pytest.raises(ValueError):
        r_polynomial(0, (1, -1), 0)  # unstable (0,2)
    with pytest.raises(ValueError):
        r_polynomial(1, (0,), -1)


@pytest.mark.parametrize("A", [(Fraction(1, 2), Fraction(-1, 2)), (1.7, -1.7)])
def test_problem_validation_rejects_non_integral_weights(A):
    # truncating to integers would compute the class of another vector
    bound = admissible_r_bound((1, -1), 1)
    with pytest.raises(ValueError, match="integer entries"):
        pixton_class(1, A, 1, bound + 1)
    with pytest.raises(ValueError, match="integer entries"):
        r_polynomial(1, A, 1)
    with pytest.raises(ValueError, match="integer entries"):
        vanishing_check(1, A, 2)
    # integral values of another numeric type are still accepted
    assert pixton_class(1, (Fraction(1), -1.0), 1, bound + 1) is not None


def test_constant_term_evaluates_at_zero():
    rp = r_polynomial(1, (0,), 1)
    const = constant_term(rp)
    assert const == stratum_class(LOOP).scale(Fraction(-1, 12))
    assert const.integrate() == Fraction(-1, 24)


def test_dr_cycle_genus_zero_is_fundamental():
    for a_vec in [(1, -1, 0), (2, -1, -1), (1, 1, -2, 0)]:
        assert dr_cycle(0, a_vec) == fundamental(0, len(a_vec))


def test_dr_cycle_elliptic_zero_integral():
    assert dr_cycle(1, (0,)).integrate() == Fraction(-1, 24)


def test_dr_cycle_depends_on_vector():
    # On the elliptic two-pointed space the cycle with contact orders
    # (1,-1) restricts the double ramification condition; its psi-pairing
    # differs from the zero-vector one.
    d11 = dr_cycle(1, (1, -1))
    d00 = dr_cycle(1, (0, 0))
    assert d11.pair(psi_class(1, 2, 1)) != d00.pair(psi_class(1, 2, 1))


def test_vanishing_check_passes_beyond_genus():
    report = vanishing_check(0, (1, -1, 0, 0), 1)
    assert report["verdict"] == "pairing-null"
    assert report["pairings"]  # nonempty list of [label, value]
    assert all(value == "0" for _, value in report["pairings"])
    report2 = vanishing_check(1, (0,), 2)
    assert report2["verdict"] == "pairing-null"
    assert report2["constant_term_integral"] is None
    assert "skipped" not in report and "skipped" not in report2


def test_vanishing_check_detects_nonzero():
    # at degree equal to the genus the constant term is a nonzero cycle
    report = vanishing_check(1, (0,), 1)
    assert report["verdict"] == "FAIL"
    assert any(value != "0" for _, value in report["pairings"])
    assert report["constant_term_integral"] == "-1/24"
    assert "skipped" not in report


def test_incomplete_verdict_names_what_was_skipped():
    # dim M_{2,2} = 5 exceeds the product bound, so the degree-2 boundary
    # generators are left out of the pairing
    report = vanishing_check(2, (1, -1), 3)
    assert report["verdict"] == "incomplete"
    assert all(value == "0" for _, value in report["pairings"])
    assert report["skipped"] == (
        "boundary generators of degree 2: dimension 5 exceeds "
        f"PRODUCT_DIMENSION_BOUND = {PRODUCT_DIMENSION_BOUND}"
    )


def test_relabeling_symmetry_of_classes():
    # swapping the two nonzero contact orders mirrors the class
    cls = pixton_class(0, (1, -1, 0, 0), 1, 11)
    swapped = pixton_class(0, (-1, 1, 0, 0), 1, 11)
    assert cls.relabel_markings((2, 1, 3, 4)) == swapped


def test_errors_are_arithmetic_errors():
    assert issubclass(PolynomialityError, ArithmeticError)
    assert issubclass(HeldOutMismatchError, ArithmeticError)


def test_census_is_built_once_per_type(monkeypatch):
    # the class template and the complementary generators share one census
    # cache, so each (g, n) census is enumerated a single time
    builds = Counter()
    enumerate_graphs = intersection.enumerate_stable_graphs

    def counting(g, n, **kwargs):
        builds[(g, n)] += 1
        return enumerate_graphs(g, n, **kwargs)

    # patch every binding of the census function inside the package
    for name, module in list(sys.modules.items()):
        if name.startswith("tautdr") and hasattr(module, "enumerate_stable_graphs"):
            monkeypatch.setattr(module, "enumerate_stable_graphs", counting)
    intersection._all_graphs.cache_clear()
    pixton._build_template.cache_clear()
    assert vanishing_check(1, (1, -1, 0), 2)["verdict"] == "pairing-null"
    assert builds == {(1, 3): 1}
