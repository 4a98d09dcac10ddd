"""Insertion ring, pairing structure, axiom predicates, loop-axiom failure."""

from fractions import Fraction

import pytest

from tautdr import (
    InsertionElement,
    StableGraph,
    cohft_axiom_predicates,
    example_omega_values,
    insertion_pairing,
    loop_axiom_demo,
    psi_class,
    stratum_class,
)
from tautdr.intersection import ProductCapabilityError
from tautdr.cohft import (
    BrokenSymmetryFamily,
    ConstantFamily,
    RelativePointFamily,
    classes_agree,
    insertion_basis,
    level_insertion,
    point_insertion,
    unit_insertion,
)


# ---------------------------------------------------------------------------
# Pairing


def test_pairing_table():
    one, om = unit_insertion(), point_insertion()
    assert insertion_pairing(one, om) == 1
    assert insertion_pairing(om, one) == 1
    assert insertion_pairing(one, one) == 0  # deg < top on the curve
    assert insertion_pairing(om, om) == 0
    assert insertion_pairing(level_insertion(1), level_insertion(-1)) == 1
    assert insertion_pairing(level_insertion(1), level_insertion(2)) == 0
    assert insertion_pairing(level_insertion(3), level_insertion(-3)) == 1
    assert insertion_pairing(level_insertion(1), one) == 0


def test_pairing_is_symmetric_and_bilinear():
    a = InsertionElement(0, Fraction(2), Fraction(3))
    b = InsertionElement(0, Fraction(5), Fraction(-1))
    assert insertion_pairing(a, b) == insertion_pairing(b, a)
    assert insertion_pairing(a, b) == 2 * (-1) + 3 * 5
    c = level_insertion(2, Fraction(7))
    d = level_insertion(-2, Fraction(1, 3))
    assert insertion_pairing(c, d) == Fraction(7, 3)


def test_pairing_matrix_is_a_permutation_structure():
    basis = insertion_basis(3)
    matrix = [
        [insertion_pairing(x, y) for y in basis] for x in basis
    ]
    # every row has exactly one nonzero entry, and it is 1
    for row in matrix:
        assert sorted(row) == [0] * (len(basis) - 1) + [1]
    # symmetric
    for i in range(len(basis)):
        for j in range(len(basis)):
            assert matrix[i][j] == matrix[j][i]
    # nonzero entries only where the levels cancel
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            if matrix[i][j]:
                assert x.level + y.level == 0


def test_insertions_validate_levels():
    with pytest.raises(ValueError):
        InsertionElement(1, Fraction(1), Fraction(1))  # no omega off level 0
    elt = InsertionElement(-2, Fraction(3))
    assert elt.om == 0


# ---------------------------------------------------------------------------
# Frozen evaluations


def test_omega_values():
    values = example_omega_values()
    assert values["omega_113"] == 1
    omega_033 = values["omega_033"]
    for i in (1, -1, 5, -5, 17, -17):
        assert omega_033(i) == 1
    with pytest.raises(ValueError):
        omega_033(0)


@pytest.mark.parametrize("max_level", [1, 2, 3, 10, 50])
def test_loop_demo_partial_sums(max_level):
    rows = loop_axiom_demo(max_level)
    assert rows["lhs"] == 1
    assert rows["partial_rhs"] == 2 + 2 * max_level


def test_loop_demo_diverges_with_slope_two():
    values = [loop_axiom_demo(k)["partial_rhs"] for k in range(1, 51)]
    diffs = {b - a for a, b in zip(values, values[1:])}
    assert diffs == {2}
    with pytest.raises(ValueError):
        loop_axiom_demo(0)


# ---------------------------------------------------------------------------
# classes_agree


def test_classes_agree_on_formally_distinct_presentations():
    # the two psi classes on the two-pointed elliptic space pair equally
    # against every generator even though the stored terms differ
    a = psi_class(1, 2, 1)
    b = psi_class(1, 2, 2)
    assert a != b
    assert classes_agree(a, b)
    assert not classes_agree(a, b.scale(2))
    assert classes_agree(a, a)


def test_classes_agree_raises_where_boundary_pairings_are_out_of_range():
    # two boundary strata of the five-dimensional (2,2) space that pair
    # equally with every psi/kappa monomial but differ against the
    # boundary (1/4 and -1/4 against delta_{1,1}): with the boundary
    # products out of range there is no verdict
    c1 = stratum_class(StableGraph((0, 0, 0), (1, 2), ((0, 0), (0, 1), (1, 2), (1, 2))))
    c2 = stratum_class(StableGraph((0, 0, 0), (1, 2), ((0, 0), (0, 2), (1, 1), (1, 2))))
    with pytest.raises(ProductCapabilityError):
        classes_agree(c1, c2)


# ---------------------------------------------------------------------------
# Axiom predicate reports


def test_fragment_family_passes_everything_but_loop():
    report = cohft_axiom_predicates(RelativePointFamily())
    assert report["symmetry"]["violations"] == []
    assert report["symmetry"]["checked"] > 0
    assert report["unit"]["violations"] == []
    assert report["splitting"]["violations"] == []
    assert report["splitting"]["checked"] > 0
    assert report["loop"]["holds"] is False
    assert report["loop"]["stable"] is False
    assert report["axioms_hold"]["symmetry"] is True
    assert report["axioms_hold"]["unit"] is True
    assert report["axioms_hold"]["splitting"] is True
    assert report["axioms_hold"]["loop"] is False
    # nothing was skipped: every requested check ran
    assert report["partial"] is False


def test_loop_partial_sums_grow_in_report():
    report = cohft_axiom_predicates(RelativePointFamily())
    sums = report["loop"]["partial_sums"]
    assert len(sums) >= 3
    values = [sums[d] for d in sorted(sums)]
    assert values == sorted(values)  # non-decreasing
    assert values[0] > report["loop"]["lhs"]  # already past the target
    # each extra level adds the two new pairing contributions
    diffs = {b - a for a, b in zip(values, values[1:])}
    assert diffs == {2}


def test_loop_demo_is_the_report_partial_sum():
    sums = cohft_axiom_predicates(RelativePointFamily())["loop"]["partial_sums"]
    for k in range(1, 5):
        assert loop_axiom_demo(k)["partial_rhs"] == sums[k]


def test_constant_family_satisfies_all_axioms():
    report = cohft_axiom_predicates(ConstantFamily())
    assert report["axioms_hold"]["symmetry"] is True
    assert report["axioms_hold"]["unit"] is True
    assert report["axioms_hold"]["splitting"] is True
    assert report["axioms_hold"]["loop"] is True
    assert report["loop"]["stable"] is True


def test_broken_family_is_flagged():
    report = cohft_axiom_predicates(BrokenSymmetryFamily())
    assert report["symmetry"]["violations"]
    assert report["axioms_hold"]["symmetry"] is False
