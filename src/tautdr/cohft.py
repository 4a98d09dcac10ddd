"""Insertion ring and field-theory axiom checks for the line/point pair.

Insertion elements carry an integer level: level 0 holds a cohomology class
of the line (written a*1 + b*omega), every other level holds a scalar on the
point.  The pairing couples levels i and -i only.

A family of moduli classes indexed by (genus, markings, degree) can be
handed to :func:`cohft_axiom_predicates`, which checks permutation
equivariance, the unit/forgetful identity, and the splitting identity at
exact rational arithmetic, and evaluates the self-gluing (loop) identity as
a sequence of partial sums.  For the degree-0 family of the line/point pair
the first three hold on the tested range while the loop partial sums grow
affinely without bound — the checker reports that divergence rather than a
verdict of equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .stable_graphs import StableGraph
from .intersection import (
    TautClass,
    fundamental,
    psi_class,
    stratum_class,
    forgetful_pullback,
    generators_of_degree,
)


__all__ = [
    "InsertionElement",
    "unit_insertion",
    "point_insertion",
    "level_insertion",
    "insertion_pairing",
    "insertion_basis",
    "classes_agree",
    "RelativePointFamily",
    "ConstantFamily",
    "BrokenSymmetryFamily",
    "cohft_axiom_predicates",
    "example_omega_values",
    "loop_axiom_demo",
]


# ---------------------------------------------------------------------------
# Insertion ring


@dataclass(frozen=True)
class InsertionElement:
    """One insertion: level plus class coefficients.

    At level 0 the class is ``one``*1 + ``om``*omega on the line; at any
    other level only the scalar ``one`` is allowed (the point has no
    degree-two cohomology).
    """

    level: int
    one: Fraction
    om: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "one", Fraction(self.one))
        object.__setattr__(self, "om", Fraction(self.om))
        if self.level != 0 and self.om:
            raise ValueError("nonzero levels carry scalars only")


def unit_insertion():
    return InsertionElement(0, Fraction(1))


def point_insertion():
    return InsertionElement(0, Fraction(0), Fraction(1))


def level_insertion(level, scalar=1):
    if level == 0:
        raise ValueError("level 0 insertions need explicit 1/omega parts")
    return InsertionElement(level, Fraction(scalar))


def insertion_pairing(a, b):
    """Pairing of two insertion elements; couples levels i and -i only."""
    if a.level + b.level != 0:
        return Fraction(0)
    if a.level == 0:
        # integral over the line of (a.one + a.om*omega)(b.one + b.om*omega)
        return a.one * b.om + a.om * b.one
    return a.one * b.one


def insertion_basis(max_level):
    """Ordered basis for levels -max_level..max_level."""
    basis = [level_insertion(i) for i in range(-max_level, 0)]
    basis += [unit_insertion(), point_insertion()]
    basis += [level_insertion(i) for i in range(1, max_level + 1)]
    return basis


# ---------------------------------------------------------------------------
# Comparing tautological classes

def classes_agree(a, b):
    """Exact agreement test: formal equality or pairing-null difference.

    Two classes with distinct stored presentations can still be equal; the
    fallback pairs their difference against every generator of every
    degree, boundary strata included, and accepts only an all-zero pairing
    vector.  Where a boundary pairing is out of the product range it raises
    :class:`~tautdr.intersection.ProductCapabilityError` rather than decide
    on part of the generators.
    """
    if (a.g, a.n) != (b.g, b.n):
        return False
    if a == b:
        return True
    diff = a - b
    if diff.is_zero():
        return True
    for degree in range(diff.dimension + 1):
        for _, gen in generators_of_degree(
            diff.g, diff.n, degree, include_boundary=True
        ):
            if diff.pair(gen) != 0:
                return False
    return True


class _NonScalar(Exception):
    pass


def _scalar_part(cls):
    """Coefficient of the fundamental class; raises if other terms occur."""
    if cls is None:
        raise _NonScalar("value not provided")
    total = Fraction(0)
    for stratum, coeff in cls.terms.items():
        if stratum.degree == 0 and stratum.graph.is_trivial():
            total += Fraction(coeff)
        else:
            raise _NonScalar("class has positive-degree terms")
    return total


# ---------------------------------------------------------------------------
# Families of classes


def _is_stable_type(g, m):
    return 2 * g - 2 + m > 0


def _lambda_on_genus_one(m):
    """First Chern class of the Hodge bundle in our stored presentation."""
    if m == 1:
        return psi_class(1, 1, 1)
    if m == 2:
        bubble = StableGraph((0, 1), (0, 0), ((0, 1),))
        return psi_class(1, 2, 1) - stratum_class(bubble)
    raise ValueError("presentation provided for one or two markings only")


class RelativePointFamily:
    """Degree-0 classes of the line relative to a point.

    Values are defined on (g, m) in {(0,3), (0,4), (1,1), (1,2)} for
    insertions that are level-0 or a single opposite-level pair; level
    patterns that violate conservation give the zero class, anything beyond
    the known range returns None.
    """

    name = "relative-point-degree-0"

    # degree of the line's tangent bundle twisted down by the log point
    LOG_TANGENT_DEGREE = Fraction(2 - 1)
    # integral of omega over the line
    POINT_INTEGRAL = Fraction(1)

    supported_types = ((0, 3, 0), (0, 4, 0), (1, 1, 0), (1, 2, 0))

    @property
    def unit(self):
        return unit_insertion()

    def eta_pairs(self, level):
        """Basis pairs implementing the inverse pairing at one level block."""
        if level == 0:
            return [
                (unit_insertion(), point_insertion()),
                (point_insertion(), unit_insertion()),
            ]
        return [(level_insertion(level), level_insertion(-level))]

    def value(self, g, m, beta, insertions):
        if beta != 0 or len(insertions) != m or not _is_stable_type(g, m):
            return None
        levels = [a.level for a in insertions]
        if sum(levels) != 0:
            # level conservation fails: the class vanishes identically
            return TautClass(g, m)
        nonzero = [a for a in insertions if a.level != 0]
        fills = [a for a in insertions if a.level == 0]
        if nonzero:
            if g != 0 or m not in (3, 4) or len(nonzero) != 2:
                return None
            scalar = nonzero[0].one * nonzero[1].one
            for a in fills:
                # restriction to the point kills the omega part
                scalar *= a.one
            return fundamental(g, m).scale(scalar)
        if (g, m) in ((0, 3), (0, 4)):
            scalar = Fraction(0)
            for i, a in enumerate(insertions):
                term = a.om * self.POINT_INTEGRAL
                for j, b in enumerate(insertions):
                    if j != i:
                        term *= b.one
                scalar += term
            return fundamental(g, m).scale(scalar)
        if (g, m) == (1, 1):
            (a,) = insertions
            out = fundamental(1, 1).scale(a.one * self.LOG_TANGENT_DEGREE)
            return out - _lambda_on_genus_one(1).scale(a.om)
        if (g, m) == (1, 2):
            a, b = insertions
            out = fundamental(1, 2).scale(a.one * b.one * self.LOG_TANGENT_DEGREE)
            return out - _lambda_on_genus_one(2).scale(a.one * b.om + a.om * b.one)
        return None

    def sample_insertions(self, g, m):
        u, w = unit_insertion(), point_insertion()
        if (g, m) == (0, 3):
            return [
                (u, u, w),
                (w, w, u),
                (u, level_insertion(5), level_insertion(-5)),
                (w, level_insertion(2), level_insertion(-2)),
            ]
        if (g, m) == (0, 4):
            return [
                (u, u, u, w),
                (w, w, u, u),
                (u, u, level_insertion(2), level_insertion(-2)),
                (u, w, level_insertion(2), level_insertion(-2)),
            ]
        if (g, m) == (1, 1):
            return [(u,), (w,)]
        if (g, m) == (1, 2):
            return [(u, u), (u, w), (w, w)]
        return []

    def splitting_cases(self):
        u, w = unit_insertion(), point_insertion()
        tuples = [
            (u, u, u, w),
            (w, w, u, u),
            (u, u, level_insertion(2), level_insertion(-2)),
            (u, w, level_insertion(2), level_insertion(-2)),
            (u, level_insertion(3), w, level_insertion(-3)),
        ]
        cases = []
        for ins in tuples:
            for side1 in ((1, 2), (1, 3), (1, 4)):
                cases.append((0, 4, 0, ins, side1, 0, 0))
        return cases

    def loop_case(self):
        return (1, 1, 0, (unit_insertion(),))


class ConstantFamily:
    """Fundamental class in every slot, with the trivial one-element pairing."""

    name = "constant-fundamental"
    supported_types = ((0, 3, 0), (0, 4, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0))

    @property
    def unit(self):
        return unit_insertion()

    def eta_pairs(self, level):
        if level == 0:
            return [(unit_insertion(), unit_insertion())]
        return []

    def value(self, g, m, beta, insertions):
        if beta != 0 or len(insertions) != m or not _is_stable_type(g, m):
            return None
        return fundamental(g, m)

    def sample_insertions(self, g, m):
        return [(unit_insertion(),) * m]

    def splitting_cases(self):
        u = unit_insertion()
        return [
            (0, 4, 0, (u, u, u, u), (1, 2), 0, 0),
            (1, 3, 0, (u, u, u), (1, 2), 0, 1),
        ]

    def loop_case(self):
        return (1, 1, 0, (unit_insertion(),))


class BrokenSymmetryFamily(RelativePointFamily):
    """Negative control: adds a marking-1-dependent term on (1,2)."""

    name = "broken-symmetry-control"

    def value(self, g, m, beta, insertions):
        base = super().value(g, m, beta, insertions)
        if (
            base is not None
            and (g, m) == (1, 2)
            and all(a.level == 0 for a in insertions)
        ):
            base = base + psi_class(1, 2, 1).scale(insertions[0].om)
        return base


# ---------------------------------------------------------------------------
# Axiom predicates


_SPLITTING_LEVEL_WINDOW = (0, 1, -1, 2, -2, 3, -3, 5, -5, 17, -17)
_LOOP_PARTIAL_DEPTHS = (1, 2, 3, 4)


def _transpositions(m):
    return [(p, p + 1) for p in range(1, m)]


def _loop_partial_sum(family, loop_case, depth):
    """Right side of the self-gluing identity for ``loop_case`` = (g, m,
    beta, insertions), truncated to levels of absolute value <= ``depth``:
    the genus g - 1 values with one basis pair of each level glued in."""
    g, m, beta, ins = loop_case
    total = Fraction(0)
    for level in range(-depth, depth + 1):
        for e_j, e_k in family.eta_pairs(level):
            total += _scalar_part(family.value(g - 1, m + 2, beta, ins + (e_j, e_k)))
    return total


def cohft_axiom_predicates(family):
    """Check permutation, unit, splitting and loop behavior of a family.

    The unit identity compares each value with the forgetful pullback of
    the value without the unit insertion; an instance is skipped only
    where the family provides no value.  Splitting and loop identities are evaluated on
    instances whose values are multiples of the fundamental class; other
    instances are counted as skipped and set the ``partial`` flag, as does
    any value the family does not provide.
    """
    report = {
        "family": family.name,
        "symmetry": {"checked": 0, "violations": []},
        "unit": {"checked": 0, "violations": [], "skipped": 0},
        "splitting": {"checked": 0, "violations": [], "skipped": 0},
        "loop": None,
        "partial": False,
    }

    def mark_partial():
        report["partial"] = True

    # --- permutation equivariance ------------------------------------
    for g, m, beta in family.supported_types:
        for ins in family.sample_insertions(g, m):
            base = family.value(g, m, beta, ins)
            if base is None:
                mark_partial()
                continue
            for p, q in _transpositions(m):
                swapped = list(ins)
                swapped[p - 1], swapped[q - 1] = swapped[q - 1], swapped[p - 1]
                other = family.value(g, m, beta, tuple(swapped))
                if other is None:
                    mark_partial()
                    continue
                perm = list(range(1, m + 1))
                perm[p - 1], perm[q - 1] = q, p
                expected = base.relabel_markings(perm)
                report["symmetry"]["checked"] += 1
                if not classes_agree(other, expected):
                    report["symmetry"]["violations"].append(
                        {"type": (g, m, beta), "swap": (p, q), "insertions": ins}
                    )

    # --- unit / forgetful ----------------------------------------------
    types = set(family.supported_types)
    for g, m, beta in family.supported_types:
        if (g, m + 1, beta) not in types:
            continue
        for ins in family.sample_insertions(g, m):
            small = family.value(g, m, beta, ins)
            big = family.value(g, m + 1, beta, ins + (family.unit,))
            if small is None or big is None:
                report["unit"]["skipped"] += 1
                mark_partial()
                continue
            report["unit"]["checked"] += 1
            if not classes_agree(big, forgetful_pullback(small)):
                report["unit"]["violations"].append(
                    {"type": (g, m, beta), "insertions": ins}
                )

    # --- splitting -------------------------------------------------------
    for g, m, beta, ins, side1, g1, g2 in family.splitting_cases():
        side1 = tuple(side1)
        side2 = tuple(i for i in range(1, m + 1) if i not in side1)
        total = family.value(g, m, beta, ins)
        try:
            lhs = _scalar_part(total)
            rhs = Fraction(0)
            for level in _SPLITTING_LEVEL_WINDOW:
                for e_j, e_k in family.eta_pairs(level):
                    v1 = family.value(
                        g1,
                        len(side1) + 1,
                        beta,
                        tuple(ins[i - 1] for i in side1) + (e_j,),
                    )
                    v2 = family.value(
                        g2,
                        len(side2) + 1,
                        beta,
                        tuple(ins[i - 1] for i in side2) + (e_k,),
                    )
                    rhs += _scalar_part(v1) * _scalar_part(v2)
        except _NonScalar:
            report["splitting"]["skipped"] += 1
            mark_partial()
            continue
        report["splitting"]["checked"] += 1
        if lhs != rhs:
            report["splitting"]["violations"].append(
                {
                    "type": (g, m, beta),
                    "side1": side1,
                    "insertions": ins,
                    "lhs": lhs,
                    "rhs": rhs,
                }
            )

    # --- loop (self-gluing) ---------------------------------------------
    loop_case = family.loop_case()
    if loop_case is not None:
        g, m, beta, ins = loop_case
        try:
            lhs = _scalar_part(family.value(g, m, beta, ins))
            partial_sums = {
                depth: _loop_partial_sum(family, loop_case, depth)
                for depth in _LOOP_PARTIAL_DEPTHS
            }
            values = [partial_sums[d] for d in _LOOP_PARTIAL_DEPTHS]
            stable = all(v == values[0] for v in values)
            report["loop"] = {
                "lhs": lhs,
                "partial_sums": partial_sums,
                "stable": stable,
                "holds": stable and values[0] == lhs,
            }
        except _NonScalar:
            report["loop"] = {"skipped": True}
            mark_partial()

    report["axioms_hold"] = {
        "symmetry": not report["symmetry"]["violations"],
        "unit": not report["unit"]["violations"],
        "splitting": not report["splitting"]["violations"],
        "loop": bool(report["loop"]) and report["loop"].get("holds", False),
    }
    return report


# ---------------------------------------------------------------------------
# Worked values and the divergence demo


def example_omega_values():
    """The two directly computable values of the degree-0 family.

    ``omega_113``: one marking on a genus-1 domain with the unit insertion —
    the Hodge-bundle term dies under pushforward and the answer is the
    degree of the line's log tangent bundle.  ``omega_033``: genus 0 with
    the unit and an opposite-level pair; equals 1 for every nonzero level.
    """
    family = RelativePointFamily()
    omega_113 = _scalar_part(family.value(1, 1, 0, (unit_insertion(),)))

    def omega_033(level):
        if level == 0:
            raise ValueError("the paired insertions need a nonzero level")
        return _scalar_part(
            family.value(
                0,
                3,
                0,
                (
                    unit_insertion(),
                    level_insertion(level),
                    level_insertion(-level),
                ),
            )
        )

    return {"omega_113": omega_113, "omega_033": omega_033}


def loop_axiom_demo(max_level):
    """Partial sums of the self-gluing identity for the degree-0 family.

    The left side stays 1; the right side, truncated to levels of absolute
    value at most ``max_level``, equals 2 + 2*max_level and keeps growing —
    the identity has no convergent right-hand side for this family.
    """
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    family = RelativePointFamily()
    loop_case = family.loop_case()
    g, m, beta, ins = loop_case
    return {
        "lhs": _scalar_part(family.value(g, m, beta, ins)),
        "partial_rhs": _loop_partial_sum(family, loop_case, max_level),
    }
