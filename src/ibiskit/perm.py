"""Permutations, orbits and stabilizer chains.

Permutations act on the right: (p * q) first applies p, then q, so
point images compose as q.images[p.images[i]].

PermGroup keeps a base and strong generating set built by a
deterministic Schreier-Sims pass.  A seeded random "rattle" warm-up
shortens construction.  A chain is certified in one of two ways: by a
deterministic closure in which every Schreier generator sifts to the
identity, or by reaching an order already certified for the group,
since the product of the basic orbit lengths never exceeds the true
order.  Orders are exact big integers, never Monte Carlo.

The second way makes point stabilizers cheap: H.stabilizer(p) rebuilds
H's chain based at p with |H| as its target, and the stabilizer it
returns carries its certified order.  The searches in the ibis module
step from a stabilizer to the next this way, and name a pointwise
stabilizer by its fixed-point mask.
"""

from __future__ import annotations

import random

import numpy as np

DEGREE_CAP = 10**6
ORDER_BITS_CAP = 512


class PermError(ValueError):
    pass


class Permutation:
    """An immutable permutation of [0, N) stored as an image array."""

    __slots__ = ("images", "_bytes")

    def __init__(self, images, _trusted=False):
        arr = np.asarray(images, dtype=np.int32)
        if not _trusted:
            if arr.ndim != 1 or not np.array_equal(np.sort(arr), np.arange(len(arr))):
                raise PermError("images are not a bijection on [0, N)")
            arr = arr.copy()
        arr.setflags(write=False)
        self.images = arr
        self._bytes = arr.tobytes()

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n, dtype=np.int32), _trusted=True)

    @property
    def degree(self):
        return len(self.images)

    def __mul__(self, other):
        if other.degree != self.degree:
            raise PermError("degree mismatch")
        return Permutation(other.images[self.images], _trusted=True)

    def inverse(self):
        inv = np.empty(self.degree, dtype=np.int32)
        inv[self.images] = np.arange(self.degree, dtype=np.int32)
        return Permutation(inv, _trusted=True)

    def __getitem__(self, pt):
        return int(self.images[pt])

    def is_identity(self):
        return bool(np.array_equal(self.images, np.arange(self.degree)))

    def cycles(self):
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            c = [i]
            j = int(self.images[i])
            while j != i:
                seen.add(j)
                c.append(j)
                j = int(self.images[j])
            out.append(tuple(c))
        return out

    def serialize(self):
        return [int(x) for x in self.images]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self._bytes == other._bytes

    def __hash__(self):
        return hash(self._bytes)

    def __repr__(self):
        cyc = self.cycles()
        return "Perm(id)" if not cyc else "Perm" + "".join(str(c) for c in cyc)


# -- stabilizer chain --------------------------------------------------------

class _Level:
    """A base point, its strong generators and its basic orbit.  The orbit
    is a Schreier vector; a transversal element and its inverse are
    composed from it on first use."""

    __slots__ = ("beta", "gens", "images", "orbit", "_u", "_inv")

    def __init__(self, beta, degree):
        ident = np.arange(degree, dtype=np.int32)
        self.beta = beta
        self.gens = []            # raw int32 image arrays
        self.images = []          # the same images as lists, for point lookups
        self.orbit = {beta: None}  # point -> (previous point, generator index)
        self._u = {beta: ident}    # point -> raw array u with u[beta] = point
        self._inv = {beta: ident}  # point -> inverse of _u[point]

    def add_generator(self, g):
        """Append a generator and extend the orbit: points already in it
        need only the new generator, points it reaches need all of them."""
        k = len(self.gens)
        self.gens.append(g)
        self.images.append(g.tolist())
        orbit = self.orbit
        queue = []
        for p in list(orbit):
            r = self.images[k][p]
            if r not in orbit:
                orbit[r] = (p, k)
                queue.append(r)
        for p in queue:
            for i, img in enumerate(self.images):
                r = img[p]
                if r not in orbit:
                    orbit[r] = (p, i)
                    queue.append(r)

    def transversal(self, p):
        """The element u with u[beta] = p, along the Schreier vector."""
        path = []
        while p not in self._u:
            path.append(p)
            p = self.orbit[p][0]
        u = self._u[p]
        for q in reversed(path):
            u = self.gens[self.orbit[q][1]][u]
            self._u[q] = u
        return u

    def inverse(self, p):
        inv = self._inv.get(p)
        if inv is None:
            u = self.transversal(p)
            inv = self._inv[p] = np.empty_like(u)
            inv[u] = np.arange(len(u), dtype=np.int32)
        return inv


class _Chain:
    """A base and strong generating set, certified by Schreier closure or
    by reaching a known order."""

    def __init__(self, degree, gens, base_prefix=(), known_order=None, rattle=50):
        self.degree = degree
        self.levels = [_Level(int(b), degree) for b in base_prefix]
        self._target = known_order
        arrays = [np.asarray(g.images, dtype=np.int32) for g in gens]
        for a in arrays:
            self._insert(a, 0)
        if rattle and arrays and not self._target_reached():
            self._rattle(arrays, rattle)
        if not self._target_reached():
            self._close(0)

    # orders -----------------------------------------------------------------

    def order(self):
        n = 1
        for lvl in self.levels:
            n *= len(lvl.orbit)
        return n

    def _target_reached(self):
        # Product of orbit lengths never exceeds the true order, so hitting
        # a known order certifies completeness without the closure pass.
        return self._target is not None and self.order() == self._target

    def suffix_orders(self):
        """Order of the stabilizer of the first k base points, k = 0..len."""
        out = [1]
        for lvl in reversed(self.levels):
            out.append(out[-1] * len(lvl.orbit))
        return out[::-1]

    def base(self):
        return [lvl.beta for lvl in self.levels]

    # construction -----------------------------------------------------------

    def _sift_raw(self, a, start=0):
        for idx in range(start, len(self.levels)):
            lvl = self.levels[idx]
            p = int(a[lvl.beta])
            if p == lvl.beta:
                continue
            if p not in lvl.orbit:
                return a, idx
            a = lvl.inverse(p)[a]
        return a, len(self.levels)

    def _insert(self, a, from_level):
        """Sift a; if a residue survives, install it at the failing level."""
        ident = np.arange(self.degree, dtype=np.int32)
        r, lev = self._sift_raw(a, from_level)
        if np.array_equal(r, ident):
            return False
        if lev == len(self.levels):
            moved = np.nonzero(r != ident)[0]
            self.levels.append(_Level(int(moved[0]), self.degree))
        # the residue fixes every base point above lev, so it is a valid
        # strong generator for every level in (from_level, lev]
        for j in range(from_level, lev + 1):
            if j < len(self.levels):
                self.levels[j].add_generator(r)
        return True

    def _rattle(self, arrays, count):
        """Seeded random products sifted in before deterministic closure."""
        rng = random.Random(0xB5E5 + self.degree + len(arrays))
        pool = list(arrays)
        for _ in range(count):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            c = b[a]
            pool.append(c)
            self._insert(c, 0)
            if self._target_reached():
                return

    def _close(self, i):
        """Deterministic Schreier closure: on return every Schreier
        generator at every level >= i sifts to the identity."""
        if i >= len(self.levels):
            return
        ident = np.arange(self.degree, dtype=np.int32)
        while True:
            lvl = self.levels[i]
            changed = False
            seen = set()
            for p in sorted(lvl.orbit):
                u = lvl.transversal(p)
                for g in lvl.gens:
                    w = g[u]                       # u * g
                    s = lvl.inverse(int(w[lvl.beta]))[w]   # Schreier generator
                    key = s.tobytes()
                    if key in seen:
                        continue
                    seen.add(key)
                    if np.array_equal(s, ident):
                        continue
                    if self._insert(s, i + 1):
                        self._close(i + 1)
                        changed = True
                        if self._target_reached():
                            return
            if not changed:
                if i + 1 < len(self.levels):
                    self._close(i + 1)
                return

    # queries ------------------------------------------------------------------

    def sifts_to_identity(self, perm):
        r, _ = self._sift_raw(np.asarray(perm.images, dtype=np.int32))
        return bool(np.array_equal(r, np.arange(self.degree)))

    def level_generators(self, k):
        """Generators of the stabilizer of the first k base points."""
        seen = {}
        for lvl in self.levels[k:]:
            for g in lvl.gens:
                seen[g.tobytes()] = g
        return [Permutation(g, _trusted=True) for g in seen.values()]


class PermGroup:
    """A permutation group given by generators, with lazy certified BSGS."""

    def __init__(self, degree, generators, name=None):
        if degree > DEGREE_CAP:
            raise PermError(f"degree {degree} exceeds cap")
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise PermError("generator degree mismatch")
            if not g.is_identity() and g._bytes not in seen:
                seen.add(g._bytes)
                gens.append(g)
        self.generators = gens
        self.name = name
        self._chain = None
        self._order = None        # certified order, once known

    # -- chains ---------------------------------------------------------------

    def chain(self, base_prefix=()):
        """A verified chain whose base starts with base_prefix.

        The chain with no prefix is kept.  A prefix chain is built afresh
        with |G| as its target: reaching that order certifies it without
        the closure pass.
        """
        key = tuple(int(b) for b in base_prefix)
        if not all(0 <= b < self.degree for b in key):
            raise PermError("point out of range")
        if not key and self._chain is not None:
            return self._chain
        ch = _Chain(self.degree, self.generators, base_prefix=key,
                    known_order=self.order() if key else self._order)
        if ch.order().bit_length() > ORDER_BITS_CAP:
            raise PermError("order exceeds the 2^512 cap")
        if not key:
            self._chain = ch
        return ch

    def order(self):
        if self._order is None:
            self._order = self.chain().order()
        return self._order

    def is_member(self, g):
        if g.degree != self.degree:
            raise PermError("degree mismatch")
        return self.chain().sifts_to_identity(g)

    def base(self):
        return self.chain().base()

    def orbits(self):
        """All orbits, as sorted lists of points, ordered by least point."""
        gens = [g.images.tolist() for g in self.generators]
        seen = [False] * self.degree
        out = []
        for p in range(self.degree):
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

    def fixed_points(self):
        """Mask of the points that every element fixes.

        A pointwise stabilizer is determined by this mask, because
        G_(S) = G_(fix(G_(S))).
        """
        ident = np.arange(self.degree, dtype=np.int32)
        mask = np.ones(self.degree, dtype=bool)
        for g in self.generators:
            mask &= g.images == ident
        return mask

    def stabilizer(self, pt):
        """The point stabilizer, read off a chain based at the point; its
        order comes certified with it."""
        ch = self.chain(base_prefix=(pt,))
        sub = PermGroup(self.degree, ch.level_generators(1))
        sub._order = ch.suffix_orders()[1]
        return sub

    def pointwise_stabilizer(self, points):
        """The pointwise stabilizer, one point stabilizer at a time."""
        H = self
        for p in points:
            H = H.stabilizer(p)
        return H

    def chain_orders(self, points):
        """[|G|, |G_p1|, |G_p1,p2|, ...] along the given point sequence."""
        pts = tuple(int(p) for p in points)
        return self.chain(base_prefix=pts).suffix_orders()[: len(pts) + 1]

    def serialize(self):
        return {
            "degree": self.degree,
            "generators": [g.serialize() for g in self.generators],
            "order": str(self.order()),
            "base": self.base(),
        }

    def __repr__(self):
        label = self.name or "PermGroup"
        return f"{label}(degree={self.degree}, gens={len(self.generators)})"


def derived_subgroup(G):
    """The derived subgroup: normal closure of generator commutators."""
    if G.degree > 10**4:
        raise PermError("derived subgroup degree budget exceeded")
    gens = G.generators
    comms = []
    for a in gens:
        for b in gens:
            c = a.inverse() * b.inverse() * a * b
            if not c.is_identity():
                comms.append(c)
    sub = PermGroup(G.degree, comms)
    # close under conjugation by the generators of G until stable
    while True:
        new = []
        for s in sub.generators:
            for g in gens:
                t = g.inverse() * s * g
                if not sub.is_member(t):
                    new.append(t)
        if not new:
            break
        sub = PermGroup(G.degree, sub.generators + new)
    return sub
