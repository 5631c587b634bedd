"""Irredundant-base analysis: base testing and extension, the
exhaustive search over base lengths (which also finds a base of a given
length), the IBIS decision with witnesses, minimal-base sizes,
pointwise-stabilizer equality, and the big-integer parabolic bound for E7.

Both exhaustive searches step from a pointwise stabilizer H to H_p
through a store (_Stabilizers) that names each distinct stabilizer once
by its fixed points, since G_(S) = G_(fix(G_(S))): a point is redundant
exactly when the stabilizer of its predecessors fixes it.  The store
holds no group; each search keeps the groups and tables it reads again.

The depth-first enumeration prunes to one representative point per
orbit of the current stabilizer (extending by points in the same orbit
yields conjugate stabilizers, hence identical sets of reachable chain
lengths) and, since a subtree depends only on its stabilizer, keeps each
complete subtree as {length: first suffix} under the stabilizer's id, so
its witnesses are those of the unmemoised search.  The IBIS decision is
that enumeration alone: IBIS only when it finishes with one length,
NotIBIS only from two irredundant bases of different lengths that it
found and that are re-checked before they are reported.  The
minimal-base search walks independent sequences with the same pruning,
one least point per orbit of the current stabilizer, keeping a point
only while the sequence stays independent, as read from orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_BUDGET = 2_000_000


class IbisError(ValueError):
    pass


@dataclass(frozen=True)
class BaseReport:
    """A point sequence with its stabilizer-order chain."""

    points: tuple
    stab_orders: tuple

    @property
    def is_irredundant(self):
        return all(a > b for a, b in zip(self.stab_orders, self.stab_orders[1:]))

    @property
    def is_base(self):
        return self.stab_orders[-1] == 1

    def __len__(self):
        return len(self.points)

    def serialize(self):
        return {"points": list(self.points),
                "stab_orders": [str(n) for n in self.stab_orders],
                "is_base": self.is_base, "is_irredundant": self.is_irredundant}


@dataclass(frozen=True)
class IbisVerdict:
    status: str                  # "IBIS" | "NotIBIS" | "Unknown"
    rank: int | None = None
    witnesses: tuple = ()
    lengths: frozenset = frozenset()
    complete: bool = False
    budget_used: int = 0

    def serialize(self):
        out = {"status": self.status, "method": "exhaustive",
               "budget_used": self.budget_used,
               "lengths": sorted(self.lengths)}
        if self.rank is not None:
            out["rank"] = self.rank
        if self.witnesses:
            out["witnesses"] = [w.serialize() for w in self.witnesses]
        return out


@dataclass
class EnumerationResult:
    lengths: frozenset
    complete: bool
    witnesses: dict
    nodes: int


def base_report(G, seq):
    seq = tuple(int(p) for p in seq)
    return BaseReport(seq, tuple(G.chain_orders(seq)))


def is_base(G, seq):
    """Pointwise stabilizer trivial (GAP: Size(Stabilizer(G,base,OnTuples))=1)."""
    return base_report(G, seq).is_base


def is_irredundant(G, seq):
    """Each successive stabilizer strictly smaller."""
    return base_report(G, seq).is_irredundant


def extend_to_irredundant_base(G, prefix=()):
    """Extend an irredundant prefix to an irredundant base, appending the
    lowest-index point that strictly shrinks the stabilizer each time.
    One stabilizer step per point; their orders make the report."""
    points = [int(p) for p in prefix]
    H, orders = G, [G.order()]
    for p in points:
        H = H.pointwise_stabilizer((p,))
        orders.append(H.order())
    if not BaseReport(tuple(points), tuple(orders)).is_irredundant:
        raise IbisError("prefix is not irredundant")
    while orders[-1] > 1:
        points.append(int(np.flatnonzero(~H.fixed_points())[0]))
        H = H.pointwise_stabilizer(points[-1:])
        orders.append(H.order())
    return BaseReport(tuple(points), tuple(orders))


# -- the stabilizer store ------------------------------------------------------

def _key(mask):
    """The fixed-point key of a point mask: an int whose bit p is set
    exactly when the mask holds p."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _orbit_table(H):
    """The least point of each non-trivial orbit of H, in ascending order,
    and every point's orbit length: int lists."""
    lab = H.orbits()
    lengths = np.bincount(lab)[lab]
    minima = np.flatnonzero((lab == np.arange(H.degree)) & (lengths > 1))
    return minima.tolist(), lengths.tolist()


class _Stabilizers:
    """The pointwise stabilizers of G that a search has reached, each
    named once under an id by its fixed-point key and certified order;
    id 0 is G.  No group is kept: a search keeps what it reads again.

    A kept stabilizer is G_(its key) and fixes every point of its key, so
    for H = G_(F), F = fix(H), a kept key that contains F and p names a
    subgroup of H_p = G_(F + p), and names H_p when its order is
    |H| / |p^H| (orbit-stabilizer).  find() looks H_p up that way and
    only when no key matches builds it: H.pointwise_stabilizer((p,))
    reads it off H's own chain when p lies in its first basic orbit, and
    else off a chain of H based at p with the certified |H| as its
    target; H_p keeps the levels it was read off as its chain.
    """

    def __init__(self, G):
        self.keys = [_key(G.fixed_points())]    # id -> fixed-point key
        self.orders = [G.order()]               # id -> certified order
        self.by_order = {G.order(): [0]}        # order -> ids

    def find(self, H, k, p, orbit_length):
        """(id, H_p) for the stabilizer of p in the group H with id k,
        given |p^H| = orbit_length; (id, None) when a kept key matched."""
        keys = self.keys
        order = self.orders[k] // orbit_length
        target = keys[k] | 1 << p
        for i in self.by_order.get(order, ()):
            if keys[i] & target == target:
                return i, None
        Hp = H.pointwise_stabilizer((p,))
        self.by_order.setdefault(order, []).append(len(keys))
        keys.append(_key(Hp.fixed_points()))
        self.orders.append(order)
        return len(keys) - 1, Hp


# -- exhaustive enumeration ----------------------------------------------------

def enumerate_irredundant_base_sizes(G, node_budget=DEFAULT_BUDGET,
                                     _two_lengths=False):
    """The set of lengths of all irredundant bases, by depth-first search
    over irredundant extensions.

    Explores one representative per orbit of the current stabilizer, its
    least point (conjugate subtrees realize the same length sets), and
    records the first witness chain found per length.  A subtree depends
    only on its stabilizer, named in the store by find(), so each
    complete subtree is kept as {length: first suffix in DFS order} under
    the stabilizer's id and never searched again.  Returns
    EnumerationResult with complete=False when the node budget is
    exhausted (nodes are counted before they are expanded, so then
    nodes > node_budget); a subtree cut short is not kept.  With
    _two_lengths (the IBIS decision) it also stops, incomplete, before
    expanding a node once two lengths are certified.
    """
    if node_budget < 0:
        raise IbisError(f"budget must be >= 0, got {node_budget}")
    nodes = 0
    complete = True
    store = _Stabilizers(G)
    memo = {}           # id -> {length: first suffix} of its complete subtree
    certified = set()   # lengths of the bases found so far

    def suffixes(H, k, depth):
        """H is the group with id k, or None when find() matched a kept
        key: then k is trivial or memoised, since k's subtree was searched
        when it was built (not an ancestor: those are larger) and nothing
        is searched once the search is cut short."""
        nonlocal nodes, complete
        if store.orders[k] == 1:
            return {0: ()}
        found = memo.get(k)
        if found is not None:
            return found
        found = {}
        minima, lengths = _orbit_table(H)
        for p in minima:
            if _two_lengths and len(certified) > 1:
                complete = False
                return found
            nodes += 1
            if nodes > node_budget:
                complete = False
                return found
            j, Hp = store.find(H, k, p, lengths[p])
            for length, suffix in suffixes(Hp, j, depth + 1).items():
                found.setdefault(length + 1, (p,) + suffix)
                certified.add(depth + length + 1)
        if complete:
            memo[k] = found
        return found

    witnesses = suffixes(G, 0, 0)
    del suffixes        # a recursive closure is a cycle: free it now, not at gc
    return EnumerationResult(frozenset(witnesses), complete, witnesses, nodes)


def minimal_base_sizes(G, node_budget=DEFAULT_BUDGET):
    """Sizes of minimal bases (bases no proper subset of which is a base).

    Depth-first search over *independent* sequences: a set is
    independent when deleting any member changes its pointwise
    stabilizer, that is, when the stabilizer of the others moves it.  A
    point made redundant once stays redundant in every superset, so only
    independent sets extend to minimal bases, an independent base is
    itself minimal, and every ordering of an independent set is
    irredundant.  At a node S with H = G_(S) the search extends by the
    least point p of each non-trivial orbit of H, as the enumeration
    does: H fixes S pointwise, so h in H maps S + p onto S + p^h, and
    independence and base-ness carry across.  A node carries the ids of
    the G_(S - s), s in S.  G_(S - s + p) contains H_p and is H_p exactly
    when it fixes s, so S + p is independent when no |G_(S - s)| /
    |p^G_(S - s)| is |H| / |p^H|, and only then takes stabilizer steps,
    one for H and one per member.  Steps are read again, so unlike the
    enumeration this search tables them and keeps each group it reaches
    with its orbit table, but not its chain, which would take several
    times the memory of its generators.  Sizes are read off the nodes
    with |H| = 1.  A node is counted before the test, so complete=False
    once the budget runs out, and at node_budget=0 no stabilizer is
    built.
    """
    if node_budget < 0:
        raise IbisError(f"budget must be >= 0, got {node_budget}")
    sizes = set()
    nodes = 0
    complete = True
    store = _Stabilizers(G)
    groups, tables = [G], [None]    # by id: the group, its _orbit_table once read
    steps = {}          # id * degree + point -> id of its stabilizer

    def orbits(k):
        if tables[k] is None:
            tables[k] = _orbit_table(groups[k])
        return tables[k]

    def step(k, p):
        at = k * G.degree + p
        if at not in steps:
            steps[at], Hp = store.find(groups[k], k, p, orbits(k)[1][p])
            if Hp is not None:
                groups.append(Hp.without_chain())
                tables.append(None)
        return steps[at]

    def dfs(k, others):
        """k is the id of G_(S), others[i] that of G_(S - S[i])."""
        nonlocal nodes, complete
        if store.orders[k] == 1:
            sizes.add(len(others))
            return
        minima, lengths = orbits(k)
        for p in minima:
            nodes += 1
            if nodes > node_budget:
                complete = False
                return
            order = store.orders[k] // lengths[p]
            for j in others:
                if store.orders[j] // orbits(j)[1][p] == order:
                    break
            else:
                dfs(step(k, p), [step(j, p) for j in others] + [k])

    dfs(0, [])
    del dfs             # a recursive closure is a cycle: free it now, not at gc
    return EnumerationResult(frozenset(sizes), complete, {}, nodes)


# -- the IBIS decision -----------------------------------------------------------

def decide_ibis(G, budget=DEFAULT_BUDGET, seed=None):
    """NotIBIS once the enumeration of base lengths has certified two
    (witnesses: a shortest and a longest base found, re-checked), IBIS
    only when it finishes with one, Unknown when the budget runs out.
    `budget_used` counts the nodes expanded, at most `budget`.  `seed` is
    accepted and ignored: nothing in the decision is random."""
    enum = enumerate_irredundant_base_sizes(G, budget, _two_lengths=True)
    wits = tuple(base_report(G, enum.witnesses[L])
                 for L in sorted(enum.lengths))
    common = dict(lengths=enum.lengths, complete=enum.complete,
                  budget_used=min(enum.nodes, budget))
    if len(wits) > 1:
        pair = (wits[0], wits[-1])
        if not (all(w.is_base and w.is_irredundant for w in pair)
                and len(pair[0]) < len(pair[1])):
            raise IbisError("NotIBIS witnesses failed re-certification")
        return IbisVerdict("NotIBIS", witnesses=pair, **common)
    if enum.complete:
        return IbisVerdict("IBIS", rank=min(enum.lengths),
                           witnesses=wits, **common)
    return IbisVerdict("Unknown", **common)


def same_pointwise_stabilizer(G, seq_a, seq_b):
    """Equality of the two pointwise stabilizers as subgroups: each is
    G_(F) for its own fixed-point set F, so they agree iff their
    fixed-point sets do."""
    A = G.pointwise_stabilizer(seq_a)
    B = G.pointwise_stabilizer(seq_b)
    return bool(np.array_equal(A.fixed_points(), B.fixed_points()))


# -- E7 parabolic arithmetic -------------------------------------------------------

def e7_bound_check(q):
    """Degree, suborbit size n2 and point-stabilizer order for E7(q) on the
    cosets of the parabolic P7, each evaluated by two independent
    routes, plus the least l with n2^(l-1) > |P7| (always >= 7).

    Only integer formulas are evaluated; no group is built.
    """
    p = next((d for d in range(2, min(q, 16) + 1) if q % d == 0), 0)
    if not 2 <= q <= 16 or p ** round(math.log(q, p)) != q:
        raise IbisError(f"q = {q}: the desk-scale check needs a prime power q <= 16")
    d = math.gcd(2, q - 1)
    degree = (q**14 - 1) * (q**9 + 1) * (q**5 + 1) // (q - 1)
    n2 = q * (q**9 - 1) * (q**8 + q**4 + 1) // (q - 1)
    n2_alt = q * sum(q**i for i in range(9)) * (q**4 + q**2 + 1) * (q**4 - q**2 + 1)
    p7 = (q**63 * (q**9 - 1) * (q**12 - 1) * (q**5 - 1) * (q**8 - 1)
          * (q**6 - 1) * (q**2 - 1) * (q - 1)) // d
    order = q**63 * math.prod(q**i - 1 for i in (18, 14, 12, 10, 8, 6, 2)) // d
    if order % degree or order // degree != p7 or n2 != n2_alt:
        raise IbisError("E7 cross-evaluation mismatch")
    ell = 1
    while n2 ** (ell - 1) <= p7:
        ell += 1
    if ell < 7:
        raise IbisError("E7 bound contract violated")
    return degree, n2, ell
