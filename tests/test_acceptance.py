"""End-to-end acceptance checks for the distribution.

Each check covers one pinned deliverable, compares exact rationals only
(no floats, no tolerances), enforces a wall-clock budget, and prints a
single ``[acceptance N] ...: PASS/FAIL`` line directly to the terminal so
the run log shows one line per check even under output capture.

The reference values and reference enumerations come from
``tests/oracles.py`` (independent brute-force implementations) and from
closed-form identities; nothing here is derived from the code under test.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import pytest

from oracles import (
    bipartite_canonical_key,
    bipartite_raw,
    brute_bipartite_graphs,
    brute_stable_graphs,
    bssz_dr_psi_integral,
    psi_integral_genus0,
    stable_graph_key,
)
from tautdr import intersection
from tautdr.bipartite import EnumerationBounds, TopologicalType, enumerate_bipartite
from tautdr.cohft import example_omega_values, loop_axiom_demo
from tautdr.intersection import fundamental, psi_class, psi_integral, stratum_class
from tautdr.pixton import (
    admissible_r_bound,
    constant_term,
    dr_cycle,
    pixton_class,
    r_polynomial,
    vanishing_check,
)
from tautdr.qpoly import newton_interpolate
from tautdr.series import assemble_t0
from tautdr.stable_graphs import StableGraph, enumerate_stable_graphs, trivial_graph

# Wall-clock budget per check, in seconds.
BUDGETS = {
    1: 10, 2: 30, 3: 30, 4: 300, 5: 300, 6: 60, 7: 1, 8: 1, 9: 120, 10: 60, 11: 30,
}


class _Check:
    """Times one acceptance check and prints its PASS/FAIL line."""

    def __init__(self, capsys, number: int, label: str):
        self.capsys = capsys
        self.number = number
        self.label = label
        self.budget = BUDGETS[number]

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget
        line = (
            f"[acceptance {self.number}] {self.label}: "
            f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, budget {self.budget}s)"
        )
        with self.capsys.disabled():
            print(line, flush=True)
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"check {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


@pytest.fixture
def check(capsys):
    def make(number: int, label: str) -> _Check:
        return _Check(capsys, number, label)

    return make


# ---------------------------------------------------------------------------
# 1. stable-graph censuses against the brute-force oracle


def test_01_stable_graph_census(check):
    with check(1, "stable-graph censuses (0,3)/(1,1)/(2,0) vs brute force"):
        expected_counts = {(0, 3): 1, (1, 1): 2, (2, 0): 7}
        for (g, n), count in expected_counts.items():
            graphs = enumerate_stable_graphs(g, n)
            assert len(graphs) == count
            lib_keys = {stable_graph_key(gr) for gr in graphs}
            assert len(lib_keys) == count  # canonical forms are distinct
            assert lib_keys == brute_stable_graphs(g, n)


# ---------------------------------------------------------------------------
# 2. psi-integral anchors, the genus-0 closed form, and the two deletion
#    identities applied to every value the engine has memoised


def test_02_psi_integrals(check):
    with check(2, "psi integrals: anchors, genus-0 closed form, deletions"):
        assert psi_integral(0, (0, 0, 0)) == 1
        assert psi_integral(1, (1,)) == Fraction(1, 24)

        # The recursion (string equation down to M_{0,3}) against the
        # genus-0 closed form, for every exponent vector with n <= 8.
        for n in range(3, 9):
            for exps in itertools.product(range(n - 2), repeat=n):
                if sum(exps) != n - 3:
                    continue
                assert psi_integral(0, exps) == psi_integral_genus0(exps)

        # Both deletion identities, applied to every memoised value: the
        # value must reappear as a summand of the once-bumped bracket with
        # an extra trivial insertion, and must rescale correctly under an
        # extra exponent-one insertion.
        snapshot = list(intersection._PSI_CACHE.items())
        assert snapshot, "the integral cache cannot be empty at this point"
        for (g, ds), value in snapshot:
            n = len(ds)
            if n:
                bumped = (ds[0] + 1,) + ds[1:]
                lhs = psi_integral(g, bumped + (0,))
                rhs = sum(
                    (
                        psi_integral(
                            g, bumped[:j] + (bumped[j] - 1,) + bumped[j + 1 :]
                        )
                        for j in range(n)
                        if bumped[j] >= 1
                    ),
                    Fraction(0),
                )
                assert lhs == rhs
            assert psi_integral(g, ds + (1,)) == (2 * g - 2 + n) * value


# ---------------------------------------------------------------------------
# 3. the two pinned weighted-stratum classes, at several moduli each


LOOP_11 = StableGraph((0,), (0,), ((0, 0),))


def _boundary_pair(i: int, j: int, n: int = 4) -> StableGraph:
    legs = tuple(0 if m in (i, j) else 1 for m in range(1, n + 1))
    return StableGraph((0, 0), legs, ((0, 1),))


def test_03_pinned_classes(check):
    with check(3, "pinned degree-1 classes at sampled moduli"):
        # Elliptic one-pointed problem: the class is a multiple of the
        # self-node stratum.  Stored coefficients sit against the
        # automorphism-normalised stratum generator, so the multiple reads
        # (r^2-1)/12 while the honest cycle (and the integral, after the
        # extra 1/2 from integrate's normalisation) carries (r^2-1)/24.
        for r in (5, 7, 11, 101, 1009):
            cls = pixton_class(1, (0,), 1, r)
            assert cls == stratum_class(LOOP_11).scale(Fraction(r * r - 1, 12))
            assert cls.integrate() == Fraction(r * r - 1, 24)

        # Genus-0 four-pointed problem with weights (1,-1,0,0): exactly
        # half of each of the first two cotangent classes plus (r-1)/2
        # times each of the two separating divisors that split marking 1
        # from marking 2; every other generator has coefficient zero
        # (hence full-class equality, not just coefficient reads).
        for r in (7, 11, 23, 101, 1009):
            expected = (
                psi_class(0, 4, 1).scale(Fraction(1, 2))
                + psi_class(0, 4, 2).scale(Fraction(1, 2))
                + stratum_class(_boundary_pair(1, 3)).scale(Fraction(r - 1, 2))
                + stratum_class(_boundary_pair(1, 4)).scale(Fraction(r - 1, 2))
            )
            assert pixton_class(0, (1, -1, 0, 0), 1, r) == expected


# ---------------------------------------------------------------------------
# 4. polynomiality in the modulus over the full small-problem grid


def _sorted_weight_vectors(n: int, bound: int = 3) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [
        A
        for A in itertools.combinations_with_replacement(
            range(bound, -bound - 1, -1), n
        )
        if sum(A) == 0
    ]


def test_04_interpolation_grid(check):
    with check(4, "interpolation grid: all types of dimension <= 3"):
        types = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 0)]
        problems = [
            (g, A, d)
            for (g, n) in types
            for A in _sorted_weight_vectors(n)
            for d in (0, 1, 2, 3)
        ]
        assert len(problems) == 520  # freeze the grid so it cannot shrink

        for idx, (g, A, d) in enumerate(problems):
            # r_polynomial itself verifies three held-out moduli and the
            # degree bound for every problem (a mismatch raises).  Every
            # seventh problem additionally gets an independent probe at
            # three fresh moduli far outside the sampling window.
            rp = r_polynomial(g, A, d)
            assert len(rp.held_out) == 3
            if idx % 7 == 0:
                bound = admissible_r_bound(A, d)
                for r in (bound + 31, bound + 38, bound + 45):
                    assert rp.at(r) == pixton_class(g, A, d, r)

        # The grid above uses sorted weight vectors; spot-check that
        # permuted weights give the correspondingly relabelled class.
        spot = [
            (0, (1, -1, 0, 0), (3, 1, 2, 4), 1),
            (0, (2, -1, -1, 0), (3, 1, 4, 2), 1),
            (1, (1, -1), (2, 1), 2),
            (0, (3, -2, -1), (2, 3, 1), 2),
        ]
        for g, A_sorted, perm, d in spot:
            # marking i of the sorted problem becomes marking perm[i-1]
            A_perm = tuple(A_sorted[i - 1] for i in _inverse(perm))
            assert A_perm != A_sorted
            bound = max(
                admissible_r_bound(A_sorted, d), admissible_r_bound(A_perm, d)
            )
            for r in (bound + 1, bound + 2):
                relabelled = pixton_class(g, A_sorted, d, r).relabel_markings(perm)
                assert pixton_class(g, A_perm, d, r) == relabelled


def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p - 1] = i + 1
    return tuple(inv)


# ---------------------------------------------------------------------------
# 5. vanishing of the constant term beyond the cycle dimension


def test_05_vanishing_verdicts(check):
    with check(5, "constant-term vanishing in degrees above the genus"):
        cases = [
            (0, (1, -1, 0, 0), 1),
            (0, (2, -1, -1, 0), 1),
            (1, (0,), 2),
            (1, (1, -1), 2),
            (1, (1, -1, 0), 2),
            (1, (1, -1, 0), 3),
        ]
        for g, A, d in cases:
            report = vanishing_check(g, A, d)
            assert report["verdict"] == "pairing-null", (g, A, d, report["verdict"])
            dim = 3 * g - 3 + len(A)
            if d <= dim:
                assert report["pairings"], (g, A, d)
            else:
                # above the ambient dimension the whole polynomial class is
                # zero, so there is nothing left to pair against
                assert report["class"]["terms"] == []
            assert all(Fraction(v) == 0 for _label, v in report["pairings"])
            if d == dim:
                assert report["constant_term_integral"] == "0"

        # The detector is not vacuous: in degree equal to the genus the
        # constant term is a nonzero multiple of the boundary and the same
        # routine must flag it.
        flagged = vanishing_check(1, (0,), 1)
        assert flagged["verdict"] == "FAIL"
        assert flagged["constant_term_integral"] == str(Fraction(-1, 24))

        # Dual route for the two-pointed elliptic case: interpolate the
        # bare integral numbers (not the classes) in the modulus and read
        # the constant term of that numeric polynomial directly.
        g, A, d = 1, (1, -1), 2
        bound = admissible_r_bound(A, d)
        rs = [bound + 1 + i for i in range(2 * d + 3)]
        points = [(r, pixton_class(g, A, d, r).integrate()) for r in rs]
        poly = newton_interpolate(points)
        assert poly.degree <= 2 * d
        assert poly(0) == 0
        probe = bound + 40
        assert poly(probe) == pixton_class(g, A, d, probe).integrate()
        assert constant_term(r_polynomial(g, A, d)).integrate() == 0


# ---------------------------------------------------------------------------
# 6. the extracted cycle itself: genus 0 and the elliptic integral


def test_06_extracted_cycle(check):
    with check(6, "extracted cycle: genus-0 fundamentality, elliptic integral"):
        for A in ((1, -1, 0), (2, -1, -1), (1, 1, -2, 0)):
            assert dr_cycle(0, A) == fundamental(0, len(A))
        assert dr_cycle(1, (0,)).integrate() == Fraction(-1, 24)


# ---------------------------------------------------------------------------
# 7. the two directly computable values of the degree-0 relative family


def test_07_omega_values(check):
    with check(7, "worked values of the degree-0 relative family"):
        values = example_omega_values()
        assert values["omega_113"] == 1
        for level in (1, -1, 5, -5, 17, -17):
            assert values["omega_033"](level) == 1


# ---------------------------------------------------------------------------
# 8. divergence of the self-gluing identity for that family


def test_08_loop_divergence(check):
    with check(8, "self-gluing partial sums diverge at slope two"):
        partials = []
        for level_cap in range(1, 51):
            report = loop_axiom_demo(level_cap)
            assert report["lhs"] == 1
            assert report["partial_rhs"] == 2 + 2 * level_cap
            partials.append(report["partial_rhs"])
        diffs = {b - a for a, b in zip(partials, partials[1:])}
        assert diffs == {2}


# ---------------------------------------------------------------------------
# 9. bipartite gluing graphs against brute force, and stability of the
#    constant-term extraction under deeper truncation


def test_09_bipartite_and_extraction(check):
    with check(9, "bipartite census vs brute force; extraction stability"):
        contact_vectors = [
            (),
            (1,),
            (2,),
            (1, 1),
            (1, -1),
            (-1, 1),
            (2, -1),
            (-1, 2),
            (2, -2),
            (3, -1),
        ]
        universe = [
            (g, n, sum(mu), len(mu), mu)
            for g in (0, 1, 2)
            for n in (0, 1)
            for mu in contact_vectors
            if 0 <= sum(mu) <= 2
        ]
        assert len(universe) == 60

        bounds = EnumerationBounds(
            max_rubber_vertices=2,
            max_rigid_vertices=2,
            max_edges=3,
            max_edge_degree=3,
        )
        all_graphs = []
        for g, n, beta, rho, mu in universe:
            gamma = TopologicalType(g, n, beta, rho, mu)
            pairs = enumerate_bipartite(gamma, bounds=bounds)
            lib = {
                bipartite_canonical_key(*bipartite_raw(gr)): aut
                for gr, aut in pairs
            }
            assert len(lib) == len(pairs)  # no two graphs share a key
            brute = brute_bipartite_graphs(
                g,
                n,
                beta,
                rho,
                mu,
                max_rubber=2,
                max_rigid=2,
                max_edges=3,
                max_edge_degree=3,
            )
            assert lib == brute, (g, n, beta, rho, mu)
            all_graphs.extend(gr for gr, _aut in pairs)

        assert len(all_graphs) == 265  # freeze the universe's census size
        for gr in all_graphs:
            base = assemble_t0(gr)
            deep = assemble_t0(gr, truncation=2 * base.truncation + 4)
            assert base.poly == deep.poly


def test_10_three_coupled_cycle_variables(check):
    with check(10, "genus 3, degree 4: three coupled cycle variables"):
        # the degree-4 template reaches graphs whose three cycle variables
        # share edges; r_polynomial verifies the held-out moduli and the
        # degree bound, and the boundary products stop at dimension 4
        report = vanishing_check(3, (0,), 4)
        assert len(report["pairings"]) == 7
        assert all(value == "0" for _label, value in report["pairings"])
        assert report["verdict"] == "incomplete"


# ---------------------------------------------------------------------------
# 11. the double ramification cycle in genus 1 to 3 against the closed form
#     for its top psi_1 power


def test_11_dr_cycle_psi_integrals(check):
    with check(11, "DR cycles in genus 1-3 against the BSSZ psi_1 integrals"):
        grid = [
            (1, (1, -1)),
            (1, (2, -1, -1)),
            (2, (0,)),
            (2, (1, -1)),
            (2, (2, -2)),
            (2, (4, -4)),
            (2, (2, -1, -1)),
            (2, (3, -1, -2)),
            (3, (0,)),
            (3, (0, 0)),
            (3, (1, -1)),
            (3, (2, -2)),
        ]
        for g, A in grid:
            n = len(A)
            psi_power = stratum_class(
                trivial_graph(g, n), leg_psi=(2 * g - 3 + n,) + (0,) * (n - 1)
            )
            assert dr_cycle(g, A).pair(psi_power) == bssz_dr_psi_integral(g, A), (g, A)
