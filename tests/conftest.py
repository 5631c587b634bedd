"""Shared group/domain constructions, cached per test session."""

import functools
import itertools
import random

import numpy as np

from ibiskit import linalg
from ibiskit.actions import (
    ActionDomain, build_domain, build_group_action, build_nonsingular_points,
    build_quad_forms_domain, build_subspace_domain, build_totally_singular,
    induce_images,
)
from ibiskit.cli import TABLE_ROWS
from ibiskit.gf import field_of_order
from ibiskit.groups import GroupSpec, classical_generators, outer_element
from ibiskit.ibis import DEFAULT_BUDGET, EnumerationResult, IbisError
from ibiskit.linalg import (
    eval_form, quadratic_minus, quadratic_plus, symplectic_form,
)
from ibiskit.perm import PermError, PermGroup

ELEMENT_CAP = 200_000


@functools.lru_cache(maxsize=None)
def named_case(name):
    """(PermGroup, ActionDomain) for the named acceptance configuration."""
    builders = {
        "SL3_2/proj7": lambda: _case(GroupSpec("SL", 3, 2),
                                     build_subspace_domain(3, 2, 1)),
        "SL4_2/proj15": lambda: _case(GroupSpec("SL", 4, 2),
                                      build_subspace_domain(4, 2, 1)),
        "Sp4_2/vec15": lambda: _case(GroupSpec("Sp", 4, 2),
                                     build_subspace_domain(4, 2, 1)),
        "Sp4_2'/vec15": lambda: _case(GroupSpec("Sp", 4, 2, derived=True),
                                      build_subspace_domain(4, 2, 1)),
        "PGL2_5/proj6": lambda: _case(GroupSpec("GL", 2, 5),
                                      build_subspace_domain(2, 5, 1)),
        "SL2_4/minus6": lambda: _case(GroupSpec("Sp", 2, 4),
                                      build_quad_forms_domain(1, 4, "-")),
        "SL2_8/minus28": lambda: _case(GroupSpec("Sp", 2, 8),
                                       build_quad_forms_domain(1, 8, "-")),
        "PSp4_3/proj40": lambda: _case(GroupSpec("Sp", 4, 3),
                                       build_subspace_domain(4, 3, 1)),
        "PSp4_3/lines40": lambda: _case(
            GroupSpec("Sp", 4, 3),
            build_totally_singular(symplectic_form(field_of_order(3), 4), 2)),
        "GL4_2/sub35": lambda: _case(GroupSpec("GL", 4, 2),
                                     build_subspace_domain(4, 2, 2)),
        "PSL3_3/proj13": lambda: _case(GroupSpec("SL", 3, 3),
                                       build_subspace_domain(3, 3, 1)),
        "PSL4_3/proj40": lambda: _case(GroupSpec("SL", 4, 3),
                                       build_subspace_domain(4, 3, 1)),
        "AutPSL2_4/proj5": lambda: _case(GroupSpec("SL", 2, 4, extensions=("frob",)),
                                         build_subspace_domain(2, 4, 1)),
        "Om4p4/ns60": lambda: _case(
            GroupSpec("OmegaPlus", 4, 4),
            build_nonsingular_points(quadratic_plus(field_of_order(4), 4))),
        "Om4m4/ns68": lambda: _case(
            GroupSpec("OmegaMinus", 4, 4),
            build_nonsingular_points(quadratic_minus(field_of_order(4), 4))),
        "SO4p4/ns60": lambda: _case(
            GroupSpec("SOplus", 4, 4),
            build_nonsingular_points(quadratic_plus(field_of_order(4), 4))),
        "SO4m4/ns68": lambda: _case(
            GroupSpec("SOminus", 4, 4),
            build_nonsingular_points(quadratic_minus(field_of_order(4), 4))),
        "Om6p2/ns28": lambda: _case(
            GroupSpec("OmegaPlus", 6, 2),
            build_nonsingular_points(quadratic_plus(field_of_order(2), 6))),
        "SO6p2/ns28": lambda: _case(
            GroupSpec("SOplus", 6, 2),
            build_nonsingular_points(quadratic_plus(field_of_order(2), 6))),
        "Sp4_2/omega_plus10": lambda: _case(GroupSpec("Sp", 4, 2),
                                            build_quad_forms_domain(2, 2, "+")),
        "Sp4_2'/omega_plus10": lambda: _case(GroupSpec("Sp", 4, 2, derived=True),
                                             build_quad_forms_domain(2, 2, "+")),
        "Sp4_2/omega_minus6": lambda: _case(GroupSpec("Sp", 4, 2),
                                            build_quad_forms_domain(2, 2, "-")),
        "Sp4_4/omega_plus136": lambda: _case(GroupSpec("Sp", 4, 4),
                                             build_quad_forms_domain(2, 4, "+")),
        "PSU3_2/iso9": lambda: _case(
            GroupSpec("SU", 3, 2),
            build_totally_singular(
                linalg.hermitian_form(field_of_order(4), 3), 1)),
    }
    G, dom = builders[name]()
    return G, dom


def _case(spec, dom):
    return build_group_action(spec, dom), dom


# The heavier actions: complement pairs of PG(2, 4), points of PG(3, 3),
# the 2-subspaces of GF(2)^4 and the plus-type forms of Sp4(4).
SEARCH_ACTIONS = {
    "SL3(4).2 pairs336": (
        {"family": "SL", "d": 3, "q": 4, "extensions": ["dual"]},
        {"kind": "pair_complement", "d": 3, "q": 4, "k": 1}),
    "PSL4(3) proj40": ({"family": "SL", "d": 4, "q": 3},
                       {"kind": "projective_points", "d": 4, "q": 3}),
    "PSp4(3) proj40": ({"family": "Sp", "d": 4, "q": 3},
                       {"kind": "projective_points", "d": 4, "q": 3}),
    "GL4(2) sub35": ({"family": "GL", "d": 4, "q": 2},
                     {"kind": "subspaces_k", "d": 4, "q": 2, "k": 2}),
    "Sp4(4) forms136": ({"family": "Sp", "d": 4, "q": 4},
                        {"kind": "quad_forms_plus", "m": 2, "q": 4}),
}
# The search actions and the 9 table rows, by name.
ACTIONS = dict(SEARCH_ACTIONS,
               **{name: (g, a) for name, g, a, _ in TABLE_ROWS})


@functools.lru_cache(maxsize=None)
def action_group(name):
    """The PermGroup of the named entry of ACTIONS."""
    gdesc, adesc = ACTIONS[name]
    dom = build_domain(adesc)
    return build_group_action(GroupSpec.deserialize(gdesc), dom)


def all_quad_forms_domain(m, q):
    """Every quadratic form theta_a polarising to the standard symplectic
    form on GF(q)^{2m}: the '+' and '-' forms domains in one."""
    plus, minus = (build_quad_forms_domain(m, q, sign) for sign in "+-")
    return ActionDomain(np.vstack([plus.codes, minus.codes]), plus.field,
                        2 * m, (), form=plus.form)


def subspace_point(dom, *vectors):
    """Domain index of the subspace spanned by the given vectors."""
    return dom.index_of(linalg.rref(dom.field, np.array(vectors))[0])


def pair_point(dom, small_vectors, big_vectors):
    W, U = sorted((linalg.rref(dom.field, np.array(vs))[0]
                   for vs in (small_vectors, big_vectors)), key=len)
    return dom.index_of(np.vstack([W, U]))


def form_point(dom, a):
    return dom.index_of(np.array(a))


# -- field power oracle ----------------------------------------------------------

def power_by_squaring(F, a, e):
    """Oracle for FiniteField.power at an exponent e >= 0: square-and-multiply
    over the mul table, with no use of the exp/log tables."""
    assert e >= 0, "the oracle takes a^-e as inv(a)^e"
    b = np.asarray(a)
    r = np.ones_like(b)
    while e:
        if e & 1:
            r = F.mul(r, b)
        b = F.mul(b, b)
        e >>= 1
    return r


# -- the group law of (matrix, Frobenius power, duality) triples ----------------

def generator_triples(spec):
    """The generators of the spec as (M, k, dual) triples, in the order
    build_group_action induces them: the socle stack, then one outer
    element per extension."""
    socle, _ = classical_generators(spec)
    return ([(M, 0, False) for M in socle]
            + [outer_element(ext, spec) for ext in spec.extensions])


def compose(F, a, b):
    """The triple of a followed by b, for v -> frob(v, k) . M and then,
    with the duality flag, the annihilator: a duality in a turns b's
    matrix into its inverse transpose."""
    (Ma, ka, da), (Mb, kb, db) = a, b
    right = linalg.inverse(F, Mb).T if da else Mb
    return linalg.mat_mul(F, F.frob(Ma, kb), right), (ka + kb) % F.f, da ^ db


def invert(F, a):
    """The triple g^-1 with compose(F, g, g^-1) the identity."""
    M, k, dual = a
    M = F.frob(M, -k % F.f)
    return (M.T if dual else linalg.inverse(F, M)), -k % F.f, dual


def is_identity(a):
    M, k, dual = a
    return k == 0 and not dual and np.array_equal(M, np.eye(len(M), dtype=M.dtype))


def same_element(a, b):
    return np.array_equal(a[0], b[0]) and a[1:] == b[1:]


def move_vectors(F, a, V):
    """The images v -> frob(v, k) . M of the rows of V under a non-duality
    triple."""
    M, k, dual = a
    assert not dual, "duality elements act on subspaces, not vectors"
    return linalg.mat_mul(F, F.frob(np.asarray(V), k), M)


def induced_rows(dom, elements):
    """The image rows of a list of triples, one induce_images call each."""
    return np.concatenate([induce_images(M[None], k, dual, dom)
                           for M, k, dual in elements])


# -- stabilizer-chain oracle ---------------------------------------------------

def sequential_chain(degree, gens, rattle=50):
    """Oracle for perm._Chain with no known order: plain Schreier-Sims on
    image rows, one element at a time, as [(base point, [strong
    generators])] per level.

    The generators, then the seeded rattle products, are sifted and their
    residues installed.  The closure then takes the levels in order and
    sifts the Schreier generators u_p g u_{p^g}^-1 of a level one at a
    time, in order of (sorted p, g); the first non-trivial residue is
    installed at the levels below and the next level closed again before
    the next Schreier generator is sifted.  Orbits are Schreier vectors
    grown breadth first, and transversal elements are composed along
    them afresh on every use."""
    ident = np.arange(degree)
    levels = []                   # [beta, gens, orbit: point -> (point, k)]

    def transversal(lvl, p):
        path = []
        while p != lvl[0]:
            p, k = lvl[2][p]
            path.append(k)
        u = ident
        for k in reversed(path):
            u = lvl[1][k][u]
        return u

    def add_generator(lvl, g):
        beta, lvl_gens, orbit = lvl
        lvl_gens.append(g)
        queue = []
        for p in list(orbit):
            if g[p] not in orbit:
                orbit[g[p]] = (p, len(lvl_gens) - 1)
                queue.append(g[p])
        for p in queue:
            for k, h in enumerate(lvl_gens):
                if h[p] not in orbit:
                    orbit[h[p]] = (p, k)
                    queue.append(h[p])

    def sift(a, start):
        for i in range(start, len(levels)):
            p = a[levels[i][0]]
            if p not in levels[i][2]:
                return a, i
            a = np.argsort(transversal(levels[i], p))[a]
        return a, len(levels)

    def insert(a, start):
        r, stop = sift(a, start)
        if (r == ident).all():
            return False
        if stop == len(levels):
            beta = int(np.flatnonzero(r != ident)[0])
            levels.append([beta, [], {beta: None}])
        for i in range(start, stop + 1):
            add_generator(levels[i], r)
        return True

    def close(i):
        if i >= len(levels):
            return
        beta, lvl_gens, orbit = levels[i]
        installed = False
        for p in sorted(orbit):
            for g in list(lvl_gens):
                u = transversal(levels[i], p)
                s = np.argsort(transversal(levels[i], g[p]))[g[u]]
                if insert(s, i + 1):
                    close(i + 1)
                    installed = True
        if not installed:
            close(i + 1)

    gens = [np.asarray(g) for g in gens]
    for g in gens:
        insert(g, 0)
    if rattle and gens:
        rng = random.Random(0xB5E5 + degree + len(gens))
        pool = list(gens)
        for _ in range(rattle):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            pool.append(b[a])
            insert(b[a], 0)
    close(0)
    return [(beta, lvl_gens) for beta, lvl_gens, _ in levels]


# -- orbit and stabilizer oracles ------------------------------------------------

def orbit_lists(G):
    """Oracle for PermGroup.orbits: all orbits, as sorted lists of points
    ordered by least point, each grown breadth first from its least
    point over the generators."""
    gens = G.generators.tolist()
    seen = [False] * G.degree
    out = []
    for p in range(G.degree):
        if seen[p]:
            continue
        seen[p] = True
        ob = [p]
        for x in ob:
            for g in gens:
                y = g[x]
                if not seen[y]:
                    seen[y] = True
                    ob.append(y)
        out.append(sorted(ob))
    return out


def stabilizer_per_point(G, points):
    """Oracle for PermGroup.pointwise_stabilizer: one point stabilizer at
    a time, each read off its own chain."""
    H = G
    for p in points:
        H = H.pointwise_stabilizer((p,))
    return H


# -- search oracles ---------------------------------------------------------

def recording_stabilizer_keys(monkeypatch):
    """The fixed-point keys of the stabilizers PermGroup.pointwise_stabilizer
    builds from now on, in a list that grows as it is called."""
    keys = []
    pointwise_stabilizer = PermGroup.pointwise_stabilizer

    def recorded(self, points):
        H = pointwise_stabilizer(self, points)
        keys.append(H.fixed_points().tobytes())
        return H

    monkeypatch.setattr(PermGroup, "pointwise_stabilizer", recorded)
    return keys


@functools.lru_cache(maxsize=None)
def element_table(G, cap=ELEMENT_CAP):
    """The full element table of a small group as an (order, degree) int32
    matrix: an oracle independent of the stabilizer chains.

    Deterministic row order: breadth-first closure from the identity,
    then lexicographic sort.
    """
    n = G.order()
    if n > cap:
        raise PermError(f"group order {n} exceeds element-table cap {cap}")
    ident = np.arange(G.degree, dtype=np.int32)
    rows = [ident]
    seen = {ident.tobytes()}
    frontier = np.array([ident])
    gens = G.generators
    while len(frontier):
        new = []
        for g in gens:
            prods = g[frontier]
            for row in prods:
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    new.append(row)
        frontier = np.array(new) if new else np.zeros((0, G.degree), np.int32)
        rows.extend(new)
    table = np.array(rows, dtype=np.int32)
    table = table[np.lexsort(table.T[::-1])]
    assert len(table) == n, "element closure disagrees with BSGS order"
    table.setflags(write=False)
    return table


def unpruned_enumeration(G, node_budget=2_000_000):
    """Brute-force oracle for the pruned enumeration: irredundant base
    lengths over the full element table, branching on every moved point
    and memoised on the stabilizer's rows."""
    table = element_table(G)
    ident = np.arange(G.degree)
    memo = {}
    nodes = 0
    complete = True

    def depths(rows):
        nonlocal nodes, complete
        if len(rows) == 1:
            return frozenset([0])
        key = rows.tobytes()
        if key in memo:
            return memo[key]
        out = set()
        moved = np.nonzero((table[rows] != ident).any(axis=0))[0]
        for p in moved:
            nodes += 1
            if nodes > node_budget:
                complete = False
                break
            out |= {d + 1 for d in depths(rows[table[rows, p] == p])}
        memo[key] = frozenset(out)
        return memo[key]

    lengths = depths(np.arange(len(table)))
    return EnumerationResult(lengths, complete, {}, nodes)


def plain_enumeration(G, node_budget=DEFAULT_BUDGET):
    """Oracle for the memoised enumeration: the same depth-first search
    with no memo, every subtree searched afresh.

    Explores one representative per orbit of the current stabilizer
    (conjugate subtrees realize the same length sets) and records the
    first witness chain found per length.  Returns EnumerationResult with
    complete=False when the node budget is exhausted.
    """
    if G.degree > 10**4:
        raise IbisError("degree too large for a completeness guarantee")
    lengths = set()
    witnesses = {}
    nodes = 0
    complete = True

    def dfs(H, chain):
        nonlocal nodes, complete
        if H.order() == 1:
            lengths.add(len(chain))
            witnesses.setdefault(len(chain), tuple(chain))
            return
        for ob in orbit_lists(H):
            if len(ob) == 1:
                continue
            nodes += 1
            if nodes > node_budget:
                complete = False
                return
            chain.append(ob[0])
            dfs(H.pointwise_stabilizer((ob[0],)), chain)
            chain.pop()

    dfs(G, [])
    return EnumerationResult(frozenset(lengths), complete, witnesses, nodes)


def plain_minimal_base_sizes(G, node_budget=DEFAULT_BUDGET):
    """Oracle for the minimal-base search: an unpruned ascending-set DFS
    with one stabilizer chain per point set, memoised on the set.

    Sizes of minimal bases (bases no proper subset of which is a base).

    Ascending-set DFS over *independent* sets: a set is independent when
    deleting any member changes its pointwise stabilizer, that is, when
    the stabilizer of the others moves it.  A point made redundant once
    stays redundant in every superset, so only independent sets extend to
    minimal bases, and an independent base is itself minimal.
    Conjugation preserves minimality, so the least point of the set may
    be restricted to orbit minima.
    """
    if G.degree > 10**3:
        raise IbisError("degree too large for minimal-base completeness")
    sizes = set()
    nodes = 0
    complete = True
    memo = {frozenset(): G}

    def stab(points):
        """G_(points), memoised on the point set."""
        key = frozenset(points)
        if key not in memo:
            memo[key] = stab(points[:-1]).pointwise_stabilizer(points[-1:])
        return memo[key]

    def independent(points):
        """All earlier members still matter after the newest point joined."""
        return all(not stab(points[:i] + points[i + 1:]).fixed_points()[points[i]]
                   for i in range(len(points) - 1))

    def dfs(H, points, startpt):
        nonlocal nodes, complete
        if H.order() == 1:
            sizes.add(len(points))
            return
        fixed = H.fixed_points()
        for p in range(startpt, G.degree):
            if fixed[p]:
                continue
            nodes += 1
            if nodes > node_budget:
                complete = False
                return
            cand = points + (p,)
            if independent(cand):
                dfs(stab(cand), cand, p + 1)

    for ob in orbit_lists(G):
        if len(ob) > 1:
            nodes += 1
            if nodes > node_budget:
                complete = False
                break
            dfs(stab((ob[0],)), (ob[0],), ob[0] + 1)
    if G.order() == 1:
        sizes = {0}
    return EnumerationResult(frozenset(sizes), complete, {}, nodes)


# -- brute-force subspace predicates: every vector of W, scalar arithmetic ----

def span_vectors(F, B):
    """Every vector c.B of the row space of the basis B."""
    out = []
    for c in itertools.product(range(F.q), repeat=len(B)):
        v = np.zeros(B.shape[1], dtype=np.int64)
        for a, row in zip(c, B):
            v = F.add(v, F.mul(a, row))
        out.append(v)
    return out


def vector_set(F, B):
    """The row space of the basis B as a set of tuples."""
    return {tuple(map(int, v)) for v in span_vectors(F, np.asarray(B))}


def dot(F, x, w):
    acc = 0
    for a, b in zip(x, w):
        acc = int(F.add(acc, F.mul(a, b)))
    return acc


def annihilator_set(F, vs, d):
    """{x : x.w = 0 for every w in vs}, by trying every x."""
    return {x for x in itertools.product(range(F.q), repeat=d)
            if all(dot(F, x, w) == 0 for w in vs)}


def _pairing(form):
    """form(u, v), or for a quadratic form its polarization
    Q(u + v) - Q(u) - Q(v)."""
    F = form.field
    if form.kind != "quadratic":
        return lambda u, v: eval_form(form, u, v)
    return lambda u, v: int(F.sub(F.sub(eval_form(form, F.add(u, v)),
                                        eval_form(form, u)), eval_form(form, v)))


def brute_totally_singular(form, B):
    """Q(v) = 0 on every v in W (quadratic), or form(u, v) = 0 on every
    pair u, v in W."""
    vs = span_vectors(form.field, B)
    if form.kind == "quadratic":
        return all(eval_form(form, v) == 0 for v in vs)
    return all(eval_form(form, u, v) == 0 for u in vs for v in vs)


def brute_nondegenerate(form, B):
    """No nonzero u in W with form(u, v) = 0 for every v in W (and, for a
    quadratic form, Q(u) = 0)."""
    vs = span_vectors(form.field, B)
    pair = _pairing(form)
    for u in vs:
        if u.any() and all(pair(u, v) == 0 for v in vs):
            if form.kind != "quadratic" or eval_form(form, u) == 0:
                return False
    return True


# -- full-Gram subspace predicates: every ordered pair of basis rows ----------

def full_gram(form, S):
    """The restricted polar Gram (n, k, k) of every basis of the stack S
    (n, k, d), from the form on every ordered pair of basis rows."""
    k = S.shape[1]
    i, j = np.indices((k, k)).reshape(2, -1)
    return linalg.eval_bilinear_batch(form, S[:, i], S[:, j]).reshape(len(S), k, k)


def full_gram_totally_singular(form, S):
    """The full Gram has rank 0 (is zero) and, for a quadratic form, Q
    vanishes on every basis row."""
    ok = linalg.rank_stack(form.field, full_gram(form, S)) == 0
    if form.kind == "quadratic":
        ok &= ~linalg.eval_quadratic_batch(form, S).any(axis=1)
    return ok


def full_gram_nondegenerate(form, S):
    """One rank of the full Gram: k, or for a quadratic form in
    characteristic 2, k - 1 with Q nonzero on the radical."""
    F = form.field
    k = S.shape[1]
    R = linalg.rref_stack(F, full_gram(form, S))
    rank = R.any(axis=2).sum(axis=1)
    ok = rank == k
    if form.kind == "quadratic" and F.p == 2:
        at = np.flatnonzero(rank == k - 1)
        C = linalg.annihilator(F, R[at, :k - 1])
        ok[at] = linalg.eval_quadratic_batch(
            form, linalg.mat_mul(F, C, S[at])).any(axis=1)
    return ok
