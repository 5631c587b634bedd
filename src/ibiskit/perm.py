"""Permutation groups on image rows, orbits and stabilizer chains.

A permutation of [0, N) is its image row, an int32 array g with g[i] the
image of i; a group's generators are one read-only (m, N) array of them.
Rows compose by indexing: g[w] first applies w, then g.

PermGroup keeps a base and strong generating set built by a
deterministic Schreier-Sims pass.  A seeded random "rattle" warm-up
shortens construction.  A chain is certified in one of two ways: by a
deterministic closure in which every Schreier generator sifts to the
identity, or by reaching a proven upper bound on the group's order,
since the product of the basic orbit lengths never exceeds the true
order.  The bound is an order already certified, or for an induced
classical group the one actions.build_group_action proves from its
spec.  Orders are exact big integers, never Monte Carlo.

Pointwise stabilizers are read off certified chains one point at a
time, and each keeps the levels it was read off as its own chain.  The
levels below a chain's first level are a certified chain of the
stabilizer of its first base point beta; conjugated by the transversal
element u with beta^u = p they are one of H_p, with the same orbit
lengths.  So a step to a point of the first basic orbit builds no chain.
For any other point a chain of H based at p is built with |H| as its
target, which the second way certifies.  The searches in the ibis module
step from H to H_p this way, name a pointwise stabilizer by its
fixed-point mask, and read orbits as labels, each orbit's least point.

A level of a chain keeps its basic orbit as a Schreier tree over rows,
one per orbit point in order of discovery, with a map from point to
row; the inverses of its transversal elements are int32 rows in a dict
keyed by the same rows, each built when first needed (see _Level).
Sifting reads one such row.  The closure sifts a level's Schreier
generators one at a time, skipping the pairs (p, g) that are tree edges,
whose Schreier generator is the identity (see _Chain._close).
"""

from __future__ import annotations

import copy
import math
import random

import numpy as np

# the level-0 inverse rows of a transitive group are N int32 rows of
# length N, so this keeps it within 1 GiB
DEGREE_CAP = 2**14
# derived_subgroup's degree cap: building and ordering derived Sp_d(2) on
# the projective points took 0.3 s and 39 MiB at N = 255, 2.6 s and 119 MiB
# at 1023, and 33 s and 689 MiB at 4095 (one run each on a 2-core Xeon)
DERIVED_DEGREE_CAP = 10**4


class PermError(ValueError):
    pass


# -- stabilizer chain --------------------------------------------------------

class _Level:
    """A base point, its strong generators, its basic orbit and the
    inverses of its transversal elements, as one dict of rows.

    Row j belongs to the j-th orbit point found, so row 0 is beta.  The
    Schreier tree is kept by row in lists: points[j], and the edge that
    reached it, from the point of row parent[j] by the generator g of
    index label[j]; orbit maps a point to its row.  The transversal
    element of row j is u = g u', u' the parent's, with u[beta] =
    points[j]; inv[j] is the int32 row of its inverse u'^-1 g^-1, all
    that sifting reads, and the closure inverts it back to u.  inv holds
    row 0, the identity, from the start, and each other row once read."""

    __slots__ = ("beta", "gens", "images", "orbit", "points", "parent", "label", "inv")

    def __init__(self, beta, degree):
        self.beta = beta
        self.gens = []            # raw int32 image arrays
        self.images = []          # the same images as lists, for point lookups
        self.orbit = {beta: 0}    # point -> row
        self.points = [beta]
        self.parent = [-1]
        self.label = [-1]
        self.inv = {0: np.arange(degree, dtype=np.int32)}

    def add_generator(self, g, img):
        """Append a generator, given as its row and as that row's list, and
        extend the orbit: points already in it need only the new
        generator, points it reaches need all of them."""
        k, n = len(self.gens), len(self.points)
        self.gens.append(g), self.images.append(img)
        orbit, points, parent, label = self.orbit, self.points, self.parent, self.label
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

    def inverse(self, row):
        """The inverse of a row's transversal element, built on first use
        with the rows on its way from a stored one."""
        inv, path = self.inv, []
        while row not in inv:
            path.append(row)
            row = self.parent[row]
        for r in reversed(path):    # u = g u' has u^-1[g[y]] = u'^-1[y]
            inv[r] = np.empty_like(inv[row])
            inv[r][self.gens[self.label[r]]] = inv[row]
            row = r
        return inv[row]

    def conjugated(self, u, rows, ident):
        """This level conjugated by the row u: the base point and orbit
        points x become u[x] and each generator g becomes u g u^-1, read
        from rows by id(g), while the tree's parent and label lists stay
        as they are.  The level is complete, so it keeps no images; its
        inverse rows are built again when first read."""
        lvl = _Level.__new__(_Level)
        lvl.beta = int(u[self.beta])
        lvl.gens = [rows[id(g)] for g in self.gens]
        lvl.images = None
        lvl.points = u[self.points].tolist()
        lvl.orbit = dict(zip(lvl.points, range(len(lvl.points))))
        lvl.parent, lvl.label = self.parent, self.label
        lvl.inv = {0: ident}
        return lvl


class _Chain:
    """A base and strong generating set, certified by Schreier closure or
    by reaching known_order, a proven upper bound on the order."""

    def __init__(self, degree, gens, base_prefix=(), known_order=None, rattle=50):
        self.degree = degree
        self._identity = np.arange(degree, dtype=np.int32).tobytes()
        self.levels = [_Level(int(b), degree) for b in base_prefix]
        self._target = known_order
        for a in gens:
            # past the target the chain is complete: the rest sift to the
            # identity
            if self._insert(a, 0) and self._target_reached():
                break
        if rattle and len(gens) and not self._target_reached():
            self._rattle(gens, rattle)
        if not self._target_reached():
            self._close(0)

    # orders -----------------------------------------------------------------

    def order(self):
        return math.prod(len(lvl.points) for lvl in self.levels)

    def _target_reached(self):
        # Product of orbit lengths never exceeds the true order, so reaching
        # a proven upper bound on it certifies completeness without the
        # closure pass.
        return self._target is not None and self.order() == self._target

    def base(self):
        return [lvl.beta for lvl in self.levels]

    def stabilizer(self, row):
        """A certified chain of the stabilizer of the point of level 0's
        row, and its strong generators as one (m, N) array, each distinct
        row once.  Row 0 is beta, and its chain is the levels below level
        0 as they are.  For another row, u its transversal element, those
        levels conjugated by u: u maps beta to the point, so it maps a
        chain of the stabilizer of beta onto one of the point's.  The
        orbit lengths are unchanged, so the order stays certified."""
        levels = self.levels[1:]
        rows = list({id(g): g for lvl in levels for g in lvl.gens}.values())
        gens = np.array(rows, dtype=np.int32).reshape(len(rows), self.degree)
        if row:
            ui = self.levels[0].inverse(row)
            u = np.empty_like(ui)
            u[ui] = np.arange(self.degree, dtype=np.int32)
            gens = u[gens][:, ui]
            conj = dict(zip(map(id, rows), gens))
            ident = np.arange(self.degree, dtype=np.int32)
            levels = [lvl.conjugated(u, conj, ident) for lvl in levels]
        ch = _Chain.__new__(_Chain)
        ch.degree, ch._identity, ch.levels = self.degree, self._identity, levels
        ch._target = ch.order()
        return ch, gens

    # construction -----------------------------------------------------------

    def _sift(self, a, start=0):
        """The residue of sifting a from level start, and its stop level."""
        for idx in range(start, len(self.levels)):
            lvl = self.levels[idx]
            row = lvl.orbit.get(int(a[lvl.beta]))
            if row is None:
                return a, idx
            if row:                 # row 0 is beta, whose u is the identity
                a = lvl.inverse(row)[a]
        return a, len(self.levels)

    def _insert(self, a, from_level):
        """Sift a; if a residue survives, install it at the failing level."""
        r, lev = self._sift(a, from_level)
        if r.tobytes() == self._identity:
            return False
        if lev == len(self.levels):
            moved = np.nonzero(r != np.arange(self.degree))[0]
            self.levels.append(_Level(int(moved[0]), self.degree))
        # the residue fixes every base point above lev, so it is a valid
        # strong generator for every level in (from_level, lev]
        img = r.tolist()
        for lvl in self.levels[from_level:lev + 1]:
            lvl.add_generator(r, img)
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

        The level's Schreier generators u_p g u_{p^g}^-1 are sifted one at
        a time from level i + 1, in order of p and then g: u_p is its
        inverse row inverted back, and u_{p^g}^-1 an inverse row.  A pair
        (p, g) that is the Schreier tree edge into p^g has u_{p^g} = g u_p,
        so its Schreier generator is the identity and is skipped.  A
        non-trivial residue is installed and the next level closed again
        before the next Schreier generator is sifted."""
        if i >= len(self.levels):
            return
        lvl = self.levels[i]
        installed = False
        for p in sorted(lvl.points):
            row = lvl.orbit[p]
            u = np.argsort(lvl.inverse(row))
            for k, img in enumerate(lvl.images):
                r = lvl.orbit[img[p]]
                if lvl.parent[r] == row and lvl.label[r] == k:
                    continue
                if self._insert(lvl.inverse(r)[lvl.gens[k][u]], i + 1):
                    self._close(i + 1)
                    installed = True
                    if self._target_reached():
                        return
        if not installed:
            self._close(i + 1)

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
        # a proven upper bound on the order, or None: reaching it certifies
        # the chain with no prefix (actions.build_group_action sets it)
        self._order_bound = None

    # -- chains ---------------------------------------------------------------

    def chain(self, base_prefix=()):
        """A verified chain whose base starts with base_prefix.

        The chain with no prefix is kept, and targets the certified order
        or else the proven order bound, if either is known; a group read
        off a chain by a step keeps that chain's levels below the step as
        it.  A prefix chain is built afresh with |G| as its target.
        Reaching the target certifies a chain without the closure pass.
        """
        key = tuple(int(b) for b in base_prefix)
        if not all(0 <= b < self.degree for b in key):
            raise PermError("point out of range")
        if not key and self._chain is not None:
            return self._chain
        ch = _Chain(self.degree, self.generators, base_prefix=key,
                    known_order=self.order() if key else self._order or self._order_bound)
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
        r, _ = self.chain()._sift(g)
        return bool((r == np.arange(self.degree)).all())

    def base(self):
        return self.chain().base()

    def orbits(self):
        """The least point of each point's orbit, as an (N,) int array.

        Each point starts as its own label, and two steps repeat until
        nothing changes: a point takes the least label of itself and its
        images under the generators and their inverses, then each label
        is replaced by its own label.  Labels stay in their orbit and end
        constant on it, so each ends as its orbit's least point.  With the
        inverses a label crosses a long cycle in a few rounds, not one
        round per point."""
        lab = np.arange(self.degree)
        inv = np.empty_like(self.generators)         # the inverse rows
        inv[np.arange(len(inv))[:, None], self.generators] = lab
        rows = np.concatenate([lab[None], self.generators, inv])
        while True:
            new = lab[rows].min(0)
            new = new[new]
            if np.array_equal(new, lab):
                return lab
            lab = new

    def fixed_points(self):
        """Mask of the points that every element fixes.

        A pointwise stabilizer is determined by this mask, because
        G_(S) = G_(fix(G_(S))).
        """
        return (self.generators == np.arange(self.degree)).all(axis=0)

    def pointwise_stabilizer(self, points):
        """The pointwise stabilizer of a point sequence, by one-point
        steps (see _step): a group that keeps as its chain the levels it
        was read off, with its certified order."""
        *_, H = self._walk(points)
        return H

    def chain_orders(self, points):
        """[|G|, |G_p1|, |G_p1,p2|, ...] along the given point sequence,
        by the one-point steps of pointwise_stabilizer."""
        return [H.order() for H in self._walk(points)]

    def without_chain(self):
        """The same group, with its order if known, keeping no chain: for
        a caller that holds many groups, whose chains would take several
        times the memory of their generators.  A step from it builds a
        chain based at its point."""
        H = copy.copy(self)
        H._chain = None
        return H

    def _walk(self, points):
        """The group, then its stabilizers along the points, one step
        each."""
        H = self
        yield H
        for p in points:
            H = H._step(int(p))
            yield H

    def _step(self, p):
        """The stabilizer of the point p, read off a certified chain.

        Its chain is the levels below the first of the group's own chain
        when p is that chain's first base point, and those levels
        conjugated into the stabilizer of p when p lies elsewhere in its
        first basic orbit (see _Chain.stabilizer).  For any other point,
        or a group that keeps no chain, it is read off a chain of the
        group based at p, built with |G| as its target."""
        self.order()
        ch = self._chain
        row = ch.levels[0].orbit.get(p) if ch is not None and ch.levels else None
        if row is None:
            ch, row = self.chain(base_prefix=(p,)), 0
        ch, gens = ch.stabilizer(row)
        gens.setflags(write=False)
        H = PermGroup.__new__(PermGroup)
        H.degree, H.generators = self.degree, gens
        H._chain, H._order, H._order_bound = ch, ch.order(), None
        return H

    def serialize(self):
        return {
            "degree": self.degree,
            "generators": self.generators.tolist(),
            "order": str(self.order()),
            "base": self.base(),
        }


def derived_subgroup(G):
    """The derived subgroup: normal closure of generator commutators."""
    if G.degree > DERIVED_DEGREE_CAP:
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
