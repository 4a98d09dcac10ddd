"""Workload definitions shared by the orchestrator, the worker and the
reference generator: the fixed inputs, the seeded draws over them, and the
digests and independent checks that decide whether an operation passed.

Nothing here imports ``tautdr`` at module level, so the orchestrator can
import this file without loading the package it measures.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"

WORKLOADS = ("cli-cold", "interp-warm", "relative")

# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m tautdr.cli` process per operation.

CLI_POOL = (
    ("dr_g1", ("dr", "--genus", "1", "--a", "0", "--degree", "1")),
    ("dr_g1", ("dr", "--genus", "1", "--a", "0", "--degree", "2")),
    ("dr_g2", ("dr", "--genus", "2", "--a", "1,-1", "--degree", "2")),
    ("dr_g2", ("dr", "--genus", "2", "--a", "0", "--degree", "3")),
    ("dr_g3", ("dr", "--genus", "3", "--a", "0", "--degree", "3")),
    ("vanish", ("dr", "--genus", "1", "--a", "1,-1,0,0", "--degree", "2")),
    ("census", ("stable-graphs", "--genus", "1", "--legs", "4")),
    ("census", ("stable-graphs", "--genus", "2", "--legs", "2")),
)
CLI_GROUPS = ("dr_g1", "dr_g2", "dr_g3", "vanish", "census")

# Census sizes that are known independently of the reference table.
CENSUS_COUNTS = {(1, 4): 163, (2, 2): 75, (3, 1): 181}


def cli_key(args) -> str:
    return " ".join(args)


def cli_pass(rng: random.Random) -> list[tuple[str, tuple[str, ...]]]:
    """The pool as (key, args) pairs in a seeded order."""
    ops = [(cli_key(args), args) for _group, args in CLI_POOL]
    rng.shuffle(ops)
    return ops


def cli_payload(stdout: str) -> dict:
    """The computation payload of one CLI JSON output: the `config` echo of
    the invocation is left out, everything else is kept."""
    obj = json.loads(stdout)
    obj.pop("config", None)
    for key in ("class", "constant_term"):
        if key in obj:
            obj[key] = canonical_class(obj[key])
    return obj


def cli_checks(args, payload: dict) -> list[str]:
    """Independent checks on one CLI result; returns the failures."""
    problems = []
    if args[0] == "stable-graphs":
        g, n = int(args[2]), int(args[4])
        if payload["count"] != CENSUS_COUNTS[(g, n)] or len(payload["graphs"]) != payload["count"]:
            problems.append(f"census ({g},{n}) has {payload['count']} graphs")
        return problems
    g, degree = int(args[2]), int(args[6])
    a_vector = [int(x) for x in args[4].split(",")]
    if (g, a_vector, degree) == (1, [0], 1) and payload["constant_term_integral"] != "-1/24":
        problems.append("dr_cycle(1,(0,)) does not integrate to -1/24")
    if degree > g and payload["verdict"] != "pairing-null":
        problems.append(f"vanishing verdict is {payload['verdict']}")
    if degree <= g and payload["verdict"] != "not-applicable":
        problems.append(f"verdict is {payload['verdict']} at degree <= genus")
    return problems


# ---------------------------------------------------------------------------
# interp-warm: the frozen 520-problem interpolation grid of acceptance
# check 4, run by r_polynomial in one long-lived process.

GRID_TYPES = ((0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 0))
GRID_DEGREES = (0, 1, 2, 3)
# Every INTERP_STRIDE-th problem of each (g, n, d) stratum is in a pass.
INTERP_STRIDE = 4


def _weight_vectors(n: int, bound: int = 3) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [
        A
        for A in itertools.combinations_with_replacement(range(bound, -bound - 1, -1), n)
        if sum(A) == 0
    ]


def grid() -> list[tuple[int, tuple[int, ...], int]]:
    """The 520 problems (g, A, d) in the order acceptance check 4 uses."""
    problems = [
        (g, A, d)
        for (g, n) in GRID_TYPES
        for A in _weight_vectors(n)
        for d in GRID_DEGREES
    ]
    if len(problems) != 520:
        raise RuntimeError(f"the interpolation grid has {len(problems)} problems, not 520")
    return problems


def interp_subset() -> list[tuple[int, tuple[int, ...], int]]:
    """A fixed stratified subset: every fourth problem of each (g, n, d)
    stratum, starting from the first, so every stratum is represented."""
    strata: dict[tuple[int, int, int], list] = {}
    for g, A, d in grid():
        strata.setdefault((g, len(A), d), []).append((g, A, d))
    return [p for members in strata.values() for p in members[::INTERP_STRIDE]]


@functools.lru_cache(maxsize=None)
def _arrangements(A: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(set(itertools.permutations(A))))


def interp_pass(rng: random.Random, used: dict) -> list:
    """One pass: the subset in a seeded order, each problem with its
    markings relabelled by a seeded permutation.

    Returns (key, (g, A_sorted, A_relabelled, perm, d)) pairs with
    A_relabelled[perm[i] - 1] == A_sorted[i], so the class of the relabelled
    problem, relabelled by the inverse of perm, is the class of the sorted
    problem.  Relabelling keeps the cost of a problem, unlike drawing other
    problems, which is why the draw varies markings and order only.
    ``used`` holds the relabellings this process has run; a problem is
    never run twice with the same weights, which the package's template
    cache would answer, so in a later pass one with no unused relabelling
    is left out.
    """
    problems = interp_subset()
    rng.shuffle(problems)
    ops = []
    for g, A, d in problems:
        key = interp_key(g, A, d)
        fresh = [t for t in _arrangements(A) if t not in used.setdefault(key, set())]
        if not fresh:
            continue
        relabelled = rng.choice(fresh)
        used[key].add(relabelled)
        free = list(range(len(A)))
        perm = []
        for a in A:
            position = next(p for p in free if relabelled[p] == a)
            free.remove(position)
            perm.append(position + 1)
        ops.append((key, (g, A, relabelled, tuple(perm), d)))
    return ops


def inverse(perm) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p - 1] = i + 1
    return tuple(inv)


def interp_key(g: int, A, d: int) -> str:
    return f"{g};{','.join(map(str, A))};{d}"


# ---------------------------------------------------------------------------
# relative: bipartite enumeration and constant-term extraction.

CONTACT_VECTORS = (
    (), (1,), (2,), (1, 1), (1, -1), (-1, 1), (2, -1), (-1, 2), (2, -2), (3, -1),
)
CAPPED = dict(max_rubber_vertices=2, max_rigid_vertices=2, max_edges=3, max_edge_degree=3)
CAPPED_GRAPHS = 265
INTRINSIC_TYPES = ((0, 1, 3, 2, (2, 1)), (2, 0, 2, 2, (1, 1)), (1, 0, 2, 3, (2, 1, -1)))


def universe() -> list[tuple[int, int, int, int, tuple[int, ...]]]:
    """The 60 topological types of acceptance check 9, in its order."""
    types = [
        (g, n, sum(mu), len(mu), mu)
        for g in (0, 1, 2)
        for n in (0, 1)
        for mu in CONTACT_VECTORS
        if 0 <= sum(mu) <= 2
    ]
    if len(types) != 60:
        raise RuntimeError(f"the bipartite universe has {len(types)} types, not 60")
    return types


def relative_ops() -> list[tuple[tuple, bool]]:
    """Every (type, capped) pair the reference table covers."""
    return [(t, True) for t in universe()] + [(t, False) for t in INTRINSIC_TYPES]


def relative_subset() -> list[tuple[tuple, bool]]:
    """The 42 capped types of degree at most one, plus the three
    intrinsic-bound types.

    The 18 capped types of degree two cost 0.3 to 5 s each, 36 s together,
    more than a whole run of the others.  Relabelling the contact
    orders of a type changes its cost by up to half, so the seed sets the
    order only."""
    return [(t, True) for t in universe() if t[2] <= 1] + [(t, False) for t in INTRINSIC_TYPES]


def relative_pass(rng: random.Random) -> list:
    """The subset as (key, op) pairs in a seeded order."""
    ops = [(relative_key(*op), op) for op in relative_subset()]
    rng.shuffle(ops)
    return ops


def relative_key(gamma, capped: bool) -> str:
    g, n, beta, rho, mu = gamma
    return f"{g};{n};{beta};{rho};{','.join(map(str, mu))};{'capped' if capped else 'intrinsic'}"


def run_relative_op(gamma, capped: bool):
    """The timed operation: enumerate the graphs, then extract the constant
    term of every graph at the default truncation and at 2t+4."""
    from tautdr import bipartite, series

    bounds = bipartite.EnumerationBounds(**CAPPED) if capped else None
    pairs = bipartite.enumerate_bipartite(bipartite.TopologicalType(*gamma), bounds=bounds)
    results = []
    for graph, aut in pairs:
        base = series.assemble_t0(graph)
        deep = series.assemble_t0(graph, truncation=2 * base.truncation + 4)
        results.append((graph, aut, base, deep))
    return results


def relative_payload(results) -> list:
    return [
        [graph.to_json_obj(), str(aut), base.to_json_obj(), deep.to_json_obj()]
        for graph, aut, base, deep in results
    ]


# ---------------------------------------------------------------------------
# digests


def canonical_class(obj: dict) -> dict:
    """A TautClass JSON object with its terms in a fixed order, so that the
    digest depends on the class and not on the order terms were stored."""
    terms = sorted(json.dumps(t, sort_keys=True) for t in obj["terms"])
    return {"ambient": obj["ambient"], "terms": terms}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def class_digest(taut) -> str:
    return digest(canonical_class(taut.to_json_obj()))


def interp_digests(taut, const) -> dict:
    """Digests of an interpolated class and of its constant term in r."""
    return {"class": class_digest(taut), "constant_term": class_digest(const)}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
