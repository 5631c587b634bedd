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

A level of a chain keeps its basic orbit as a Schreier tree over rows,
one per orbit point in order of discovery, with a map from point to
row; the inverses of its transversal elements are an int32 table over
the same rows, each row built when first needed (see _Level).  Sifting
reads a table row.  The closure builds a level's Schreier generators a
chunk of orbit points at a time with one take on the generators and one
on the table, skips the pairs (p, g) that are tree edges, whose
Schreier generator is the identity, drops repeats by comparing rows, and
sifts the rest as a stack (see _Chain._close).
"""

from __future__ import annotations

import functools
import random

import numpy as np

DEGREE_CAP = 10**6
ORDER_BITS_CAP = 512


class PermError(ValueError):
    pass


# -- stabilizer chain --------------------------------------------------------

# Schreier generators are built in chunks of about this many entries (64
# KiB of int32), or of one orbit point's generators if that is more.
CHUNK_CODES = 1 << 14


def _row_keys(rows):
    """A 32-bit linear hash of each row; it only picks the rows to compare."""
    return rows @ _key_weights(rows.shape[1])


@functools.lru_cache(maxsize=None)
def _key_weights(n):
    """n pseudo-random int32 weights: splitmix64 of 1..n.  A Weyl sequence
    alone is nearly linear in the position, and then rows that pair the
    same points with positions of the same sum collide."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> np.uint64(31))) >> np.uint64(33)).astype(np.int32)


def _take_rows(table, rows, A):
    """table[rows[t]][A[t]] for each row t of the int32 array A, as one
    take on the flat table; A is used up."""
    if table.size >= 2**31:
        A = A.astype(np.intp)
    A += (rows * table.shape[1]).astype(A.dtype)[:, None]
    return np.take(table, A)


def _grown(a, n, cap):
    """a with room for cap rows, its first n kept."""
    out = np.empty((cap,) + a.shape[1:], a.dtype)
    out[:n] = a[:n]
    return out


class _Met:
    """The rows that one closure pass has met, the identity first.  A row
    is compared with the first met row of its key: keys only choose what
    to compare.  The keys of first rows are kept sorted, each with its
    met row, so a stack of rows is looked up with one searchsorted."""

    def __init__(self, degree):
        self.rows = np.arange(degree, dtype=np.int32)[None]
        self.count = 1
        self.keys = _row_keys(self.rows)    # sorted, one per key
        self.first = np.zeros(1, np.intp)   # the first met row of each key

    def new(self, S):
        """The rows of S that repeat no row met before, now met, in order."""
        n = len(S)
        keys = _row_keys(S)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        old = self.keys[at] == keys
        # lead[t]: the first row of S with the key of row t
        order = np.argsort(keys, kind="stable")
        head = np.ones(n, dtype=bool)
        head[1:] = keys[order[1:]] != keys[order[:-1]]
        lead = np.empty(n, np.intp)
        lead[order] = order[np.flatnonzero(head)[np.cumsum(head) - 1]]
        # an old key: compare with its first met row (the rest with row 0)
        fresh = (self.rows[np.where(old, self.first[at], 0)] != S).any(axis=1) | ~old
        late = np.flatnonzero(~old & (lead != np.arange(n)))
        fresh[late] = (S[lead[late]] != S[late]).any(axis=1)
        # the keys first met now: the lead rows with a new key
        heads = np.flatnonzero(~old & (lead == np.arange(n)))
        keys = np.concatenate([self.keys, keys[heads]])
        first = np.concatenate([self.first, self.count + np.cumsum(fresh)[heads] - 1])
        order = np.argsort(keys, kind="stable")
        self.keys, self.first = keys[order], first[order]
        S = S[fresh]
        end = self.count + len(S)
        if end > len(self.rows):
            self.rows = _grown(self.rows, self.count, 2 * end)
        self.rows[self.count:end] = S
        self.count = end
        return S


class _Level:
    """A base point, its strong generators, its basic orbit and the
    inverses of its transversal elements, as one table.

    Row j belongs to the j-th orbit point found, so row 0 is beta.  The
    Schreier tree is kept by row in lists: points[j], and the edge that
    reached it, from the point of row parent[j] by the generator g of
    index label[j]; orbit maps a point to its row.  The transversal
    element of row j is u = g u', u' the parent's, with u[beta] =
    points[j]; row j of the table inv is its inverse u'^-1 g^-1, which is
    all that sifting reads, and the closure inverts the rows it needs
    back to u.  A table row is built on first use, or with all the
    others when the level is closed; built marks the rows that are.  The
    table grows with the orbit and is never rebuilt.  pos is orbit as an
    array, -1 outside the orbit, for the stacked sift and the closure."""

    __slots__ = ("beta", "gens", "images", "orbit", "points", "parent", "label", "built",
                 "pos", "inv")

    def __init__(self, beta, degree):
        self.beta = beta
        self.gens = []            # raw int32 image arrays
        self.images = []          # the same images as lists, for point lookups
        self.orbit = {beta: 0}    # point -> row
        self.points = [beta]
        self.parent = [-1]
        self.label = [-1]
        self.built = [True]
        self.pos = np.full(degree, -1, np.intp)
        self.pos[beta] = 0
        self.inv = np.arange(degree, dtype=np.int32)[None]

    def add_generator(self, g):
        """Append a generator and extend the orbit: points already in it
        need only the new generator, points it reaches need all of them."""
        k, n = len(self.gens), len(self.points)
        self.gens.append(g)
        self.images.append(g.tolist())
        orbit, points, parent, label = self.orbit, self.points, self.parent, self.label
        img = self.images[k]
        for j in range(n):
            r = img[points[j]]
            if r not in orbit:
                orbit[r] = len(points)
                points.append(r), parent.append(j), label.append(k)
        j = n
        while j < len(points):
            p = points[j]
            for i, img in enumerate(self.images):
                r = img[p]
                if r not in orbit:
                    orbit[r] = len(points)
                    points.append(r), parent.append(j), label.append(i)
            j += 1
        self.built += [False] * (len(points) - n)
        self.pos[points[n:]] = range(n, len(points))

    def inverse(self, row):
        """The inverse of a row's transversal element, built on first use
        with the rows on its way from a built one."""
        path = []
        r = row
        while not self.built[r]:
            path.append(r)
            r = self.parent[r]
        if path and len(self.inv) < len(self.points):     # room for every point
            cap = max(len(self.points), min(len(self.pos), 2 * len(self.inv)))
            self.inv = _grown(self.inv, len(self.inv), cap)
        for r in reversed(path):    # u = g u' has u^-1[g[y]] = u'^-1[y]
            self.inv[r][self.gens[self.label[r]]] = self.inv[self.parent[r]]
            self.built[r] = True
        return self.inv[row]

    def schreier_generators(self, gens, edges, points):
        """u_p g u_{p^g}^-1 for the orbit points p given, then the rows g
        of gens, the stack of the generators, less the tree edges:
        u_{p^g} = g u_p on the edge (p, g) that reached p^g, so its
        Schreier generator is the identity.  edges[j] is parent * m +
        label of row j, for m generators."""
        m, c = len(gens), len(points)
        pos = self.pos
        rows = pos[points]
        images = pos[gens[:, points]]                # (m, c): the rows of p^g
        tree = edges[images] == rows * m + np.arange(m)[:, None]
        j, k = np.nonzero(~tree.T)                   # in order of p, then g
        degree = len(pos)
        u = np.empty((c, degree), np.int32)          # u_p: the rows inverted back
        np.put(u, self.inv[rows] + (np.arange(c) * degree)[:, None],
               np.arange(degree, dtype=np.int32))
        gu = np.take(gens, u, axis=1).reshape(m * c, -1)[k * c + j]
        return _take_rows(self.inv, images[k, j], gu)


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
            n *= len(lvl.points)
        return n

    def _target_reached(self):
        # Product of orbit lengths never exceeds the true order, so hitting
        # a known order certifies completeness without the closure pass.
        return self._target is not None and self.order() == self._target

    def suffix_orders(self):
        """Order of the stabilizer of the first k base points, k = 0..len."""
        out = [1]
        for lvl in reversed(self.levels):
            out.append(out[-1] * len(lvl.points))
        return out[::-1]

    def base(self):
        return [lvl.beta for lvl in self.levels]

    # construction -----------------------------------------------------------

    def _sift_raw(self, a, start=0):
        for idx in range(start, len(self.levels)):
            lvl = self.levels[idx]
            row = lvl.orbit.get(int(a[lvl.beta]))
            if row is None:
                return a, idx
            if row:                 # row 0 is beta, whose u is the identity
                a = lvl.inverse(row)[a]
        return a, len(self.levels)

    def _sift(self, A, start):
        """_sift_raw on each row of A in place, from its start level;
        returns the levels where the rows stopped."""
        stop = np.full(len(A), len(self.levels))
        for idx in range(int(start.min()), len(self.levels)):
            lvl = self.levels[idx]
            live = np.flatnonzero((start <= idx) & (stop == len(self.levels)))
            rows = lvl.pos[A[live, lvl.beta]]
            stop[live[rows < 0]] = idx
            move, rows = live[rows > 0], rows[rows > 0]
            if len(move):
                for r in set(rows.tolist()):
                    lvl.inverse(r)
                A[move] = _take_rows(lvl.inv, rows, A[move])
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
        and then g, are built from its table a chunk of orbit points at
        a time: the chunk's rows are inverted back to u_p, and then one
        take gives the products u_p g and one the inverses of u_{p^g}.
        The pairs (p, g) that are Schreier tree edges give the identity
        and are skipped; repeats are dropped by comparing rows.  A stack
        of them is sifted as a whole and its first non-trivial residue
        installed; once the next level is closed, the rest sifts on from
        where each row stopped.  That installs what sifting one generator
        after another would."""
        if i >= len(self.levels):
            return
        lvl = self.levels[i]
        if not lvl.gens:            # no strong generators: nothing to close
            return self._close(i + 1)
        gens = np.array(lvl.gens)
        for row in range(len(lvl.points)):
            lvl.inverse(row)
        edges = np.array(lvl.parent) * len(gens) + lvl.label   # into each row
        points = np.sort(lvl.points)
        step = max(1, CHUNK_CODES // gens.size)
        met = _Met(self.degree)
        S = met.rows[:0]
        changed = False
        for a in range(0, len(points), step):
            w = lvl.schreier_generators(gens, edges, points[a:a + step])
            S = np.concatenate([S, met.new(w)])
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
