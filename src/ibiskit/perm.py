"""Permutation groups on image rows, orbits and stabilizer chains.

A permutation of [0, N) is its image row, an int32 array g with g[i] the
image of i; a group's generators are one read-only (m, N) array of them.
Rows compose by indexing: g[w] first applies w, then g.

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

The closure builds a level's Schreier generators a chunk of orbit points
at a time as one array, drops identities and repeats by comparing rows,
and sifts the rest as a stack (see _Chain._close).
"""

from __future__ import annotations

import random

import numpy as np

DEGREE_CAP = 10**6
ORDER_BITS_CAP = 512


class PermError(ValueError):
    pass


# -- stabilizer chain --------------------------------------------------------

# Schreier generators are built in chunks of about this many entries (16
# KiB of int32), or of one orbit point's generators if that is more.
CHUNK_CODES = 1 << 12


def _row_keys(rows):
    """A 32-bit linear hash of each row; it only picks the rows to compare."""
    x = np.arange(1, rows.shape[1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return rows @ (x >> np.uint64(33)).astype(np.int32)


class _Met:
    """The rows that one closure pass has met, the identity first.  A row
    is compared with the first met row of its key: keys only choose what
    to compare."""

    def __init__(self, degree):
        self.rows = np.arange(degree, dtype=np.int32)[None]
        self.count = 1
        self.first = {int(_row_keys(self.rows)[0]): 0}   # key -> row

    def new(self, S):
        """The rows of S that repeat no row met before, now met, in order."""
        keys = _row_keys(S).tolist()
        # the first row of each key: a met row, or the row -1 - ref of S
        ref = np.array([self.first.setdefault(k, -1 - t) for t, k in enumerate(keys)])
        fresh = ref == -1 - np.arange(len(S))
        old = ref >= 0
        fresh[old] = (self.rows[ref[old]] != S[old]).any(axis=1)
        late = ~fresh & ~old
        fresh[late] = (S[-1 - ref[late]] != S[late]).any(axis=1)
        kept = np.flatnonzero(fresh)
        for i, t in enumerate(kept.tolist()):
            if ref[t] == -1 - t:
                self.first[keys[t]] = self.count + i
        S = S[kept]
        end = self.count + len(S)
        if end > len(self.rows):
            grown = np.empty((2 * end, S.shape[1]), dtype=np.int32)
            grown[:self.count] = self.rows[:self.count]
            self.rows = grown
        self.rows[self.count:end] = S
        self.count = end
        return S


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

    def apply_inverses(self, pts, A):
        """Each row A[t] followed by the inverse transversal element of pts[t]."""
        pts = pts.tolist()
        place = {p: j for j, p in enumerate(dict.fromkeys(pts))}
        table = np.stack([self.inverse(p) for p in place])
        return np.take(table, A + np.array([place[p] for p in pts])[:, None] * A.shape[1])


class _Chain:
    """A base and strong generating set, certified by Schreier closure or
    by reaching a known order."""

    def __init__(self, degree, gens, base_prefix=(), known_order=None, rattle=50):
        self.degree = degree
        self.levels = [_Level(int(b), degree) for b in base_prefix]
        self._target = known_order
        for a in gens:
            self._insert(a, 0)
        if rattle and len(gens) and not self._target_reached():
            self._rattle(gens, rattle)
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

    def _sift(self, A, start):
        """_sift_raw on each row of A in place, from its start level;
        returns the levels where the rows stopped."""
        stop = np.full(len(A), len(self.levels))
        for idx in range(int(start.min()), len(self.levels)):
            lvl = self.levels[idx]
            live = np.flatnonzero((start <= idx) & (stop == len(self.levels)))
            p = A[live, lvl.beta]
            out = np.array([q not in lvl.orbit for q in p.tolist()], dtype=bool)
            stop[live[out]] = idx
            move = ~out & (p != lvl.beta)
            rows = live[move]
            if len(rows):
                A[rows] = lvl.apply_inverses(p[move], A[rows])
        return stop

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

    def _rattle(self, gens, count):
        """Seeded random products sifted in before deterministic closure."""
        rng = random.Random(0xB5E5 + self.degree + len(gens))
        pool = list(gens)
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
        generator at every level >= i sifts to the identity.

        The level's Schreier generators u_p g u_{p^g}^-1, in order of p
        and then g, are built a chunk of orbit points at a time as one
        array, less identities and repeats.  A stack of them is sifted as
        a whole and its first non-trivial residue installed; once the next
        level is closed, the rest sifts on from where each row stopped.
        That installs what sifting one generator after another would."""
        if i >= len(self.levels):
            return
        lvl = self.levels[i]
        if not lvl.gens:            # no strong generators: nothing to close
            return self._close(i + 1)
        gens = np.array(lvl.gens)
        points = sorted(lvl.orbit)
        step = max(1, CHUNK_CODES // gens.size)
        met = _Met(self.degree)
        S = met.rows[:0]
        changed = False
        for a in range(0, len(points), step):
            u = np.stack([lvl.transversal(p) for p in points[a:a + step]])
            w = np.take(gens, u, axis=1).swapaxes(0, 1).reshape(-1, self.degree)
            S = np.concatenate([S, met.new(lvl.apply_inverses(w[:, lvl.beta], w))])
            if len(S) < len(w) and a + step < len(points):
                continue            # sift once a chunk's worth is met
            start = np.full(len(S), i + 1)
            while len(S):
                stop = self._sift(S, start)
                rest = (stop < len(self.levels)) | (S != met.rows[0]).any(axis=1)
                t = int(rest.argmax())
                if not rest[t]:
                    break
                self._insert(S[t].copy(), i + 1)
                self._close(i + 1)
                changed = True
                if self._target_reached():
                    return
                rest[:t + 1] = False
                S, start = S[rest], stop[rest]
            S = S[:0]
        if not changed:
            self._close(i + 1)

    # queries ------------------------------------------------------------------

    def level_generators(self, k):
        """Generators of the stabilizer of the first k base points, as rows."""
        seen = {g.tobytes(): g for lvl in self.levels[k:] for g in lvl.gens}
        return np.array(list(seen.values()), np.int32).reshape(len(seen), self.degree)


class PermGroup:
    """A permutation group given by generator rows, with lazy certified
    BSGS.  `generators` is a read-only (m, N) int32 array: the given rows
    less the identity and repeats, in order of first occurrence."""

    def __init__(self, degree, generators):
        if degree > DEGREE_CAP:
            raise PermError(f"degree {degree} exceeds cap")
        self.degree = degree
        ident = np.arange(degree, dtype=np.int32)
        try:
            rows = np.asarray(generators, dtype=np.int32)
            if not rows.size:
                rows = rows.reshape(0, degree)
            ok = rows.shape[1:] == (degree,) and (np.sort(rows, axis=1) == ident).all()
        except ValueError:          # rows of different lengths
            ok = False
        if not ok:
            raise PermError(f"generators must be rows that permute [0, {degree})")
        first = {}                # row bytes -> index of the row's first copy
        for i, r in enumerate(rows):
            first.setdefault(r.tobytes(), i)
        first.pop(ident.tobytes(), None)
        self.generators = rows[list(first.values())]
        self.generators.setflags(write=False)
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
        """Whether the image row g lies in the group."""
        g = np.asarray(g, dtype=np.int32)
        if g.shape != (self.degree,):
            raise PermError("degree mismatch")
        r, _ = self.chain()._sift_raw(g)
        return bool((r == np.arange(self.degree)).all())

    def base(self):
        return self.chain().base()

    def orbits(self):
        """All orbits, as sorted lists of points, ordered by least point."""
        gens = self.generators.tolist()
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
        return (self.generators == np.arange(self.degree)).all(axis=0)

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
            "generators": self.generators.tolist(),
            "order": str(self.order()),
            "base": self.base(),
        }


def derived_subgroup(G):
    """The derived subgroup: normal closure of generator commutators."""
    if G.degree > 10**4:
        raise PermError("derived subgroup degree budget exceeded")
    n = G.degree
    A = G.generators
    inv = np.argsort(A, axis=1).astype(np.int32)

    def apply(g, w):                # w, then g: the rows g[w], broadcast
        return np.take_along_axis(g, w, axis=-1)

    # a^-1 b^-1 a b for a, then b, in the generators
    C = apply(A[None], apply(A[:, None], apply(inv[None], inv[:, None])))
    sub = PermGroup(n, C.reshape(-1, n))
    # close under conjugation by the generators of G until stable
    while True:
        T = apply(A[None], apply(sub.generators[:, None], inv[None])).reshape(-1, n)
        new = [not sub.is_member(t) for t in T]
        if not any(new):
            return sub
        sub = PermGroup(n, np.concatenate([sub.generators, T[new]]))
