"""Independent brute-force reference implementations for the tests.

Everything here is re-derived from first principles with the dumbest
workable algorithm — exhaustive enumeration over explicit small universes —
so that the package's closed forms and pruned enumerations can be compared
against code that shares no strategy with them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial


# ---------------------------------------------------------------------------
# Stable graphs


def _connected(n_vertices, edges):
    adj = {i: set() for i in range(n_vertices)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n_vertices


def canonical_graph_key(genera, legs, edges):
    """Least relabeling of (genera, leg assignment, edge multiset)."""
    k = len(genera)
    best = None
    for m in permutations(range(k)):
        new_genera = [0] * k
        for old, new in enumerate(m):
            new_genera[new] = genera[old]
        new_legs = tuple(m[v] for v in legs)
        new_edges = tuple(
            sorted(tuple(sorted((m[u], m[v]))) for u, v in edges)
        )
        key = (tuple(new_genera), new_legs, new_edges)
        if best is None or key < best:
            best = key
    return best


def brute_stable_graphs(g, n):
    """All stable-graph isomorphism classes of type (g, n), as canonical keys.

    Enumerates every multigraph on up to dim+1 vertices with up to
    dim = 3g-3+n edges, every genus assignment and every leg placement,
    keeping the connected, stable ones of total genus g.
    """
    dim = 3 * g - 3 + n
    max_edges = max(dim, 0)
    out = set()
    for k in range(1, max_edges + 2):
        pairs = [(i, j) for i in range(k) for j in range(i, k)]
        for genera in product(range(g + 1), repeat=k):
            for m in range(max_edges + 1):
                if sum(genera) + (m - k + 1) != g:
                    continue
                for edges in combinations_with_replacement(pairs, m):
                    if not _connected(k, edges):
                        continue
                    for legs in product(range(k), repeat=n):
                        stable = True
                        for v in range(k):
                            valence = sum(1 for x in legs if x == v)
                            valence += sum(
                                (u == v) + (w == v) for u, w in edges
                            )
                            if 2 * genera[v] - 2 + valence <= 0:
                                stable = False
                                break
                        if stable:
                            out.add(canonical_graph_key(genera, legs, edges))
    return out


def stable_graph_key(graph):
    """Canonical key of a library StableGraph in the oracle's key space."""
    return canonical_graph_key(graph.genera, tuple(graph.legs), graph.edges)


def brute_graph_automorphisms(graph):
    """|Aut| by checking every permutation of the edge half-ends.

    Half-ends are indexed 2e and 2e+1 for edge e; a valid automorphism
    commutes with the end-swap involution, induces a genus-preserving
    vertex bijection, and fixes the vertex of every labeled leg.
    """
    genera, legs, edges = graph.genera, graph.legs, graph.edges
    k, n_edges = len(genera), len(edges)

    def vertex_of(h):
        return edges[h // 2][h % 2]

    count = 0
    for pi in permutations(range(2 * n_edges)):
        if any(pi[h ^ 1] != pi[h] ^ 1 for h in range(2 * n_edges)):
            continue
        vmap = {}
        ok = True
        for h in range(2 * n_edges):
            v, w = vertex_of(h), vertex_of(pi[h])
            if vmap.setdefault(v, w) != w:
                ok = False
                break
        if not ok:
            continue
        for v in range(k):
            vmap.setdefault(v, v)
        if len(set(vmap.values())) != k:
            continue
        if any(genera[vmap[v]] != genera[v] for v in range(k)):
            continue
        if any(vmap[v] != v for v in legs):
            continue
        count += 1
    return count


# ---------------------------------------------------------------------------
# Genus-0 psi integrals and weighting sums


def psi_integral_genus0(exponents):
    """(n-3)! / prod(a_i!) when the exponents fill the dimension, else 0."""
    n = len(exponents)
    if n < 3 or any(a < 0 for a in exponents):
        return Fraction(0)
    if sum(exponents) != n - 3:
        return Fraction(0)
    denominator = 1
    for a in exponents:
        denominator *= factorial(a)
    return Fraction(factorial(n - 3), denominator)


def bssz_dr_psi_integral(g, A):
    """int over DR_g(A) of psi_1^(2g - 3 + n), n = len(A), by the closed form
    of Buryak-Shadrin-Spitz-Zvonkine (arXiv:1211.5273):

        [z^(2g)] prod_{i >= 2} S(a_i z) / S(z),   S(z) = sinh(z/2) / (z/2).

    Series are exact lists of coefficients of z^0, z^2, ..., z^(2g)."""

    def s_series(a):
        # sinh(az/2) / (az/2) = sum_k (az)^(2k) / (4^k (2k+1)!)
        return [Fraction(a ** (2 * k), 4**k * factorial(2 * k + 1)) for k in range(g + 1)]

    def times(x, y):
        return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(g + 1)]

    numerator = [Fraction(1)] + [Fraction(0)] * g
    for a in A[1:]:
        numerator = times(numerator, s_series(a))
    # divide by S(z), whose constant term is 1
    denominator = s_series(1)
    quotient = []
    for k in range(g + 1):
        quotient.append(
            numerator[k] - sum(quotient[i] * denominator[k - i] for i in range(k))
        )
    return quotient[g]


def brute_weighting_sum(graph, leg_values, r, profile):
    """Sum of prod_e (w_e (r - w_e))^profile[e] over all weightings mod r.

    A weighting gives edge e the residue w_e on its first end and r - w_e
    on its second; at every vertex the leg values plus incident end
    residues must vanish mod r.
    """
    n_vertices = len(graph.genera)
    total = Fraction(0)
    for ws in product(range(r), repeat=len(graph.edges)):
        sums = [0] * n_vertices
        for i, v in enumerate(graph.legs):
            sums[v] += leg_values[i]
        for e, (u, v) in enumerate(graph.edges):
            sums[u] += ws[e]
            sums[v] += (-ws[e]) % r
        if any(s % r for s in sums):
            continue
        term = Fraction(1)
        for e, w in enumerate(ws):
            term *= Fraction(w * (r - w)) ** profile[e]
        total += term
    return total


def per_stratum_r_polynomial(g, A, d):
    """The r-polynomial class by the per-stratum route.

    Unlike the rest of this module it reuses the package's numeric class:
    it builds ``pixton_class`` at the 2d+3 default sample moduli and
    interpolates every stratum coefficient on its own.  ``r_polynomial``
    interpolates one factor per weighting block instead; the class is
    linear in the block factors, so both routes give the same class with
    ``QPoly`` coefficients.
    """
    from tautdr.intersection import TautClass
    from tautdr.pixton import admissible_r_bound, pixton_class
    from tautdr.qpoly import newton_interpolate

    r0 = admissible_r_bound(A, d) + 1
    samples = range(r0, r0 + 2 * d + 3)
    sampled = {r: pixton_class(g, A, d, r) for r in samples}
    strata = set().union(*(cls.terms for cls in sampled.values()))
    out = TautClass(g, len(A))
    for stratum in strata:
        poly = newton_interpolate(
            [(r, sampled[r].terms.get(stratum, Fraction(0))) for r in samples]
        )
        if poly:
            out.terms[stratum] = poly
    return out


# ---------------------------------------------------------------------------
# Bipartite gluing graphs


def _raw_rubber(genus, legs, zero_roots, neg_roots):
    return (
        int(genus),
        tuple(sorted(legs)),
        tuple(sorted(zero_roots)),
        tuple(sorted(neg_roots)),
    )


def _raw_rigid(genus, degree, legs, marking_roots):
    return (
        int(genus),
        int(degree),
        tuple(sorted(legs)),
        tuple(sorted(marking_roots)),
    )


def bipartite_raw(graph):
    """Raw nested-tuple form of a library BipartiteGraph."""
    rubbers = tuple(
        _raw_rubber(v.genus, v.legs, v.zero_roots, v.neg_roots)
        for v in graph.side0
    )
    rigids = tuple(
        _raw_rigid(v.genus, v.degree, v.legs, v.marking_roots)
        for v in graph.side_inf
    )
    return rubbers, rigids, tuple(graph.edges)


def bipartite_canonical_key(rubbers, rigids, edges):
    """Least relabeling over independent permutations of the two sides."""
    best = None
    for pr in permutations(range(len(rubbers))):
        for pi in permutations(range(len(rigids))):
            new_rubbers = [None] * len(rubbers)
            for old, new in enumerate(pr):
                new_rubbers[new] = rubbers[old]
            new_rigids = [None] * len(rigids)
            for old, new in enumerate(pi):
                new_rigids[new] = rigids[old]
            new_edges = tuple(
                sorted((pr[a], pi[b], d) for a, b, d in edges)
            )
            key = (tuple(new_rubbers), tuple(new_rigids), new_edges)
            if best is None or key < best:
                best = key
    return best


def bipartite_is_valid(rubbers, rigids, edges, g, n, beta, rho, mu):
    """Re-derived validity test for a raw bipartite candidate.

    Checks the label bijection, weight signs, per-vertex weight balance
    (all root weights plus implicit node-root weights sum to zero), vertex
    stability, connectivity, and the topological-type readout.
    """
    n_rubber, n_rigid = len(rubbers), len(rigids)
    if n_rubber + n_rigid == 0:
        return False

    # label bookkeeping
    legs_seen = []
    roots_seen = {}
    for genus, legs, zero_roots, neg_roots in rubbers:
        if genus < 0:
            return False
        legs_seen.extend(legs)
        for label, w in zero_roots:
            if w <= 0 or label in roots_seen:
                return False
            roots_seen[label] = w
        for label, w in neg_roots:
            if w >= 0 or label in roots_seen:
                return False
            roots_seen[label] = w
    for genus, degree, legs, marking_roots in rigids:
        if genus < 0 or degree < 0:
            return False
        legs_seen.extend(legs)
        for label, w in marking_roots:
            if w <= 0 or label in roots_seen:
                return False
            roots_seen[label] = w
    if sorted(legs_seen) != list(range(1, n + 1)):
        return False
    if sorted(roots_seen) != list(range(n + 1, n + rho + 1)):
        return False
    if tuple(roots_seen[label] for label in sorted(roots_seen)) != tuple(mu):
        return False

    # edges reference existing vertices with positive degree
    for a, b, d in edges:
        if not (0 <= a < n_rubber and 0 <= b < n_rigid and d >= 1):
            return False

    # balance: per vertex, root weights plus node-root weights cancel
    for i, (genus, legs, zero_roots, neg_roots) in enumerate(rubbers):
        weight = sum(w for _, w in zero_roots) + sum(w for _, w in neg_roots)
        weight -= sum(d for a, _, d in edges if a == i)
        if weight != 0:
            return False
        if not zero_roots:
            return False  # nothing meets the zero end
        if not neg_roots and not any(a == i for a, _, _ in edges):
            return False  # nothing meets the infinity end
    for j, (genus, degree, legs, marking_roots) in enumerate(rigids):
        weight = sum(w for _, w in marking_roots)
        weight += sum(d for _, b, d in edges if b == j)
        if weight != degree:
            return False

    # stability
    for i, (genus, legs, zero_roots, neg_roots) in enumerate(rubbers):
        half_edges = (
            len(legs)
            + len(zero_roots)
            + len(neg_roots)
            + sum(1 for a, _, _ in edges if a == i)
        )
        if half_edges <= 2 - 2 * genus:
            return False
    for j, (genus, degree, legs, marking_roots) in enumerate(rigids):
        half_edges = (
            len(legs)
            + len(marking_roots)
            + sum(1 for _, b, _ in edges if b == j)
        )
        if degree == 0 and half_edges <= 2 - 2 * genus:
            return False

    # connectivity over the bipartite adjacency
    total = n_rubber + n_rigid
    adj = {v: set() for v in range(total)}
    for a, b, _ in edges:
        adj[a].add(n_rubber + b)
        adj[n_rubber + b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != total:
        return False

    # genus and degree readout
    h1 = len(edges) - total + 1
    genus_total = (
        sum(v[0] for v in rubbers) + sum(v[0] for v in rigids) + h1
    )
    if genus_total != g:
        return False
    if sum(v[1] for v in rigids) != beta:
        return False
    return True


def brute_bipartite_automorphisms(rubbers, rigids, edges):
    """|Aut| as a sum over decoration-preserving side permutations.

    Each compatible pair of side permutations contributes the number of
    ways to match the edge multiset with itself, i.e. the product of
    factorials of parallel-edge multiplicities.
    """
    from collections import Counter

    edge_counter = Counter(edges)
    total = 0
    for pr in permutations(range(len(rubbers))):
        if any(rubbers[i] != rubbers[pr[i]] for i in range(len(rubbers))):
            continue
        for pi in permutations(range(len(rigids))):
            if any(rigids[j] != rigids[pi[j]] for j in range(len(rigids))):
                continue
            mapped = Counter(
                (pr[a], pi[b], d) for a, b, d in edges
            )
            if mapped != edge_counter:
                continue
            contribution = 1
            for mult in edge_counter.values():
                contribution *= factorial(mult)
            total += contribution
    return total


def _distribute(items, n_bins):
    """All assignments of each item to one of the bins."""
    if not items:
        yield {}
        return
    for assignment in product(range(n_bins), repeat=len(items)):
        yield dict(zip(items, assignment))


def brute_bipartite_graphs(
    g,
    n,
    beta,
    rho,
    mu,
    max_rubber=2,
    max_rigid=2,
    max_edges=3,
    max_edge_degree=3,
):
    """All valid bipartite gluing graphs within the caps, by generate-and-test.

    Returns a dict from the oracle's canonical key to the oracle's
    automorphism count.  The generator places every label everywhere it
    could go and leaves all filtering to :func:`bipartite_is_valid`.
    """
    mu = tuple(mu)
    positives = [n + 1 + i for i in range(rho) if mu[i] > 0]
    negatives = [n + 1 + i for i in range(rho) if mu[i] < 0]
    weight_of = {n + 1 + i: mu[i] for i in range(rho)}
    legs = list(range(1, n + 1))

    found = {}
    for n_rubber in range(0, max_rubber + 1):
        for n_rigid in range(0, max_rigid + 1):
            n_total = n_rubber + n_rigid
            if n_total == 0:
                continue
            edge_kinds = [
                (a, b, d)
                for a in range(n_rubber)
                for b in range(n_rigid)
                for d in range(1, max_edge_degree + 1)
            ]
            for leg_assign in _distribute(legs, n_total):
                for pos_assign in _distribute(positives, n_total):
                    for neg_assign in _distribute(negatives, n_rubber):
                        for m in range(max_edges + 1):
                            for edges in combinations_with_replacement(
                                edge_kinds, m
                            ):
                                h1 = len(edges) - n_total + 1
                                remaining = g - h1
                                if remaining < 0:
                                    continue
                                for genera in product(
                                    range(remaining + 1), repeat=n_total
                                ):
                                    if sum(genera) != remaining:
                                        continue
                                    rubbers = tuple(
                                        _raw_rubber(
                                            genera[i],
                                            [l for l, v in leg_assign.items() if v == i],
                                            [
                                                (p, weight_of[p])
                                                for p, v in pos_assign.items()
                                                if v == i
                                            ],
                                            [
                                                (q, weight_of[q])
                                                for q, v in neg_assign.items()
                                                if v == i
                                            ],
                                        )
                                        for i in range(n_rubber)
                                    )
                                    rigids = []
                                    for j in range(n_rigid):
                                        vertex_index = n_rubber + j
                                        marking = [
                                            (p, weight_of[p])
                                            for p, v in pos_assign.items()
                                            if v == vertex_index
                                        ]
                                        degree = sum(w for _, w in marking)
                                        degree += sum(
                                            d for a, b, d in edges if b == j
                                        )
                                        rigids.append(
                                            _raw_rigid(
                                                genera[vertex_index],
                                                degree,
                                                [
                                                    l
                                                    for l, v in leg_assign.items()
                                                    if v == vertex_index
                                                ],
                                                marking,
                                            )
                                        )
                                    rigids = tuple(rigids)
                                    if not bipartite_is_valid(
                                        rubbers, rigids, edges, g, n, beta, rho, mu
                                    ):
                                        continue
                                    key = bipartite_canonical_key(
                                        rubbers, rigids, edges
                                    )
                                    if key not in found:
                                        found[key] = brute_bipartite_automorphisms(
                                            rubbers, rigids, edges
                                        )
    return found


# ---------------------------------------------------------------------------
# Constant term of the localization product


def brute_t0(graph, sigma_set="node", denominator_set="node"):
    """t^0 coefficient of a gluing graph's localization product, in sympy.

    With x = 1/t every factor is a rational function of x: the rigid side
    gives 1/(1 + Psi x), and a rubber vertex gives

        t^(rho_inf - 1) * prod_sigma (1 - s_e x) / (1 - Psi_inf x)
                        * prod_denominator d_e x / (1 - s_e x),

    with s_e = d_e*psibar_e - evD_e over its infinity-end half-edges ("node"
    keeps the edges, "infty" adds the marking-type roots with d_e = -w).
    The product is x^(-a) G(x) with a = sum (rho_inf - 1) and G regular at
    x = 0, so t^0 is the x^a Taylor coefficient of G, read off sympy's
    series expansion.  Symbols are named ``Psi``, ``Psi_inf_<vertex>``,
    ``psibar_<key>`` and ``evD_<key>``, the key being the edge index or
    ``m<label>``.
    """
    import sympy as sp

    x = sp.Symbol("x")
    product = sp.Integer(1)
    if graph.side_inf:
        product /= 1 + sp.Symbol("Psi") * x
    shift = 0
    for i, vertex in enumerate(graph.side0):
        nodes = [(str(idx), d) for idx, (a, _, d) in enumerate(graph.edges) if a == i]
        marks = [(f"m{label}", -w) for label, w in vertex.neg_roots]
        shift += len(nodes) + len(marks) - 1

        def s(key, d):
            return d * sp.Symbol(f"psibar_{key}") - sp.Symbol(f"evD_{key}")

        sigma_edges = nodes if sigma_set == "node" else nodes + marks
        denominator_edges = nodes if denominator_set == "node" else nodes + marks
        for key, d in sigma_edges:
            product *= 1 - s(key, d) * x
        product /= 1 - sp.Symbol(f"Psi_inf_{i}") * x
        for key, d in denominator_edges:
            product *= d * x / (1 - s(key, d) * x)
    if shift < 0:
        return sp.Integer(0)
    expansion = sp.series(product, x, 0, shift + 1).removeO()
    return sp.expand(expansion).coeff(x, shift)


def t0_json_as_sympy(obj):
    """A multi-rubber ``AssembledT0.to_json_obj`` object as a sympy
    expression in the symbols of :func:`brute_t0`."""
    import sympy as sp

    total = sp.Integer(0)
    for mono in obj["monomials"]:
        num, den = mono["coeff"].split("/")
        term = sp.Rational(int(num), int(den)) * sp.Symbol("Psi") ** mono["Psi"]
        for vertex, p in mono["Psi_inf"].items():
            term *= sp.Symbol(f"Psi_inf_{vertex}") ** p
        for key, p in mono["psibar"].items():
            term *= sp.Symbol(f"psibar_{key}") ** p
        for key, p in mono["evD"].items():
            term *= sp.Symbol(f"evD_{key}") ** p
        total += term
    return total
