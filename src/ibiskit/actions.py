"""Indexed point domains for the classical-group actions, and induction
of permutations from classes of elements.

A domain is one (N, w) int64 code array, a row per point: the flattened
RREF basis of a subspace, the two bases of a pair side by side, or the
parameter vector a of a quadratic form theta_a.  Each row has one key
that orders as the row's bytes (linalg.row_keys: a uint64 when the row's
digits fit in 64 bits, its packed bytes when not); the rows are sorted
by it, so indices are deterministic, checked distinct by it, and a row's
index is found by searchsorted on it; point labels are still
representation-dependent and never asserted across builds with a
different field or form convention.
Construction checks the defining predicate of every point as a mask over
a stack of bases: enumerate_subspaces applies it to blocks of the bases it
has built and gathers only those that pass, and for totally singular
subspaces it builds them from singular, mutually orthogonal rows, one
stacked step per row for every pivot pattern, and the mask re-checks them.

Induction works on one class of elements at a time: a matrix stack M
(m, d, d) with one Frobenius power k and one duality flag, as the groups
module gives them.  A class acts on the whole point array at once: for
subspaces one batched product, one elimination and, for a duality, one
annihilator (`_act_subspaces`); for forms one stacked inverse and one
affine map (`_act_forms`); then one index lookup for all the images.
A pair domain acts on each distinct member once, not once per pair
(`ActionDomain.members`), and reads each pair's image off its members'.
Stacks are cut so that each product holds about INDUCE_CODES codes.
`induce_images` returns the image rows; `build_group_action` induces the
socle stack and then each outer element, in the spec's order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import gf, linalg, perm
from .gf import trace_bit
from .groups import (
    GroupSpec, classical_generators, in_matrix_group, matrix_group_order,
    outer_element,
)
from .linalg import (
    annihilator, is_nondegenerate, is_totally_singular, mat_mul,
    quadratic_theta0, rank_stack, row_keys, rref_stack, symplectic_form,
)
from .perm import PermGroup, derived_subgroup

SIZE_CAP = 10**6


class ActionError(ValueError):
    pass


def _are_codes(field, rows):
    """Whether every entry of rows is a code of the field, 0 <= c < q."""
    return not rows.size or rows.view(np.uint64).max() < field.q  # a negative wraps past q


class ActionDomain:
    """An indexed point set over GF(q)^d.  Row i of `codes` is point i:
    the RREF bases of subspaces of dimensions `dims` side by side (one
    subspace, or the two members of a pair), or for the forms domain
    (dims = ()) the parameter vector of the form."""

    def __init__(self, codes, field, d, dims, form=None):
        if len(codes) > SIZE_CAP:
            raise ActionError(f"domain size {len(codes)} exceeds cap")
        codes = np.asarray(codes, dtype=np.int64)
        codes = codes.reshape(len(codes), d * sum(dims) if dims else d)
        if not _are_codes(field, codes):
            raise ActionError(f"domain codes are not elements of {field!r}")
        keys = row_keys(field.q, codes)     # sorted, checked and searched
        order = np.argsort(keys, kind="stable")
        self.codes = codes[order]
        self.codes.setflags(write=False)
        self._keys = keys[order]
        self.field = field
        self.d = d
        self.dims = tuple(dims)
        self.form = form
        self._members = None
        if np.any(self._keys[1:] == self._keys[:-1]):
            raise ActionError("domain points are not pairwise distinct")

    @property
    def N(self):
        return len(self.codes)

    def bases(self, at=slice(None)):
        """The stacks (n, k, d) of RREF bases of the points at the indices
        `at` (default: every point), one stack per member: one for a
        subspace domain, two for a pair domain, none for forms."""
        rows = self.codes[at]
        cuts = np.cumsum((0,) + self.dims) * self.d
        return [rows[:, a:b].reshape(len(rows), k, self.d)
                for a, b, k in zip(cuts, cuts[1:], self.dims)]

    def members(self):
        """One (B, at) per member of a point, as bases() orders them: the
        distinct RREF bases B (n, k, d) that the member takes over the
        domain, and `at`, which reads B[at] as bases()'s stack.  A pair's
        members recur across pairs, so B holds each once and `at` is an
        (N,) index array; a subspace is its own member (`at` is every
        row)."""
        if self._members is None:
            parts = self.bases()
            if len(parts) == 1:
                self._members = [(parts[0], slice(None))]
            else:
                self._members = []
                for B in parts:
                    keys = row_keys(self.field.q, B.reshape(len(B), -1))
                    _, first, at = np.unique(keys, return_index=True, return_inverse=True)
                    self._members.append((B[first], at))
        return self._members

    def serialize_points(self):
        """The points as nested lists of codes: a basis, a pair of bases,
        or a parameter vector each."""
        if not self.dims:
            return self.codes.tolist()
        parts = [B.tolist() for B in self.bases()]
        return parts[0] if len(parts) == 1 else list(zip(*parts))

    def indices(self, rows):
        """The index of every row of rows (n, w); raises if one is not a
        point."""
        rows = np.asarray(rows, dtype=np.int64)
        ok = rows.shape[1:] == self.codes.shape[1:] and _are_codes(self.field, rows)
        if ok:
            keys = row_keys(self.field.q, rows)
            at = np.searchsorted(self._keys, keys)
            hit = at < self.N
            hit[hit] = self._keys[at[hit]] == keys[hit]
            ok = hit.all()
        if not ok:
            raise ActionError("point is not in the domain (domain not invariant?)")
        return at

    def index_of(self, pt):
        """The index of one point given by its codes: a basis, a pair's two
        bases stacked, or a parameter vector."""
        return int(self.indices(np.ravel(pt)[None])[0])


# -- subspace enumeration -----------------------------------------------------

# Subspace enumeration and pair domains work in blocks of about this many
# codes or pairs (512 KiB of int64); blocks of BLOCK_CODES fall out of
# cache and run slower.
PAIR_CODES = 1 << 16


def enumerate_subspaces(F, d, k, form=None, admit=None):
    """The k-subspaces of GF(q)^d, or with a form only its totally singular
    ones, as one (n, k, d) stack of RREF bases built a row at a time, each
    row in one step for every pivot pattern.  Row r's candidates in a
    pattern have 1 at pivots[r], 0 left of it and in the other pivot
    columns, and in the free columns right of it the base-q digits of a
    counter, least significant first.  Each partial basis extends by each
    candidate of its pattern; with a form, only by a singular one (Q(v) =
    0, or h(v, v) = 0) orthogonal under the polar form to its rows, read
    off one table of the form on each held row and its pattern's
    candidates.  The table is made in blocks of about PAIR_CODES codes,
    the (candidate, partial basis) pairs in blocks of about PAIR_CODES
    pairs.  The bases come pattern by pattern (lexicographic),
    candidate-major within one with the partial bases varying fastest, so
    the free entries (row by row, left to right) count up in base q.

    admit, if given, is a mask over an (n, k, d) stack of bases: only the
    bases it passes are returned, in the same order.  It sees the finished
    bases in blocks of about PAIR_CODES codes, each gathered, masked and
    dropped in turn, and the bases that pass are gathered once at the end,
    so the whole stack is never held.

    SIZE_CAP bounds the candidates of row 0 (no later row has more), each
    pattern's partial bases times its candidates, the table, and the
    partial bases a row keeps.  Without a form the last is the
    Grassmannian at row k - 1 and bounds the others, so exactly the
    Grassmannians over SIZE_CAP are refused, before any pattern is
    listed."""
    _check_dimension(d, k)
    q = F.q
    # row 0 has at least q^(d-k) candidates and the Grassmannian at least
    # q^(k(d-k)) bases, powers refused before either is counted.  Row 0
    # has q^(d-k-c) candidates in each of the comb(d-1-c, k-1) patterns
    # with first pivot c; too many are refused before any pattern is listed
    _refuse_power(q, d - k if form is not None else k * (d - k))
    if form is None and gaussian_binomial(d, k, q) > SIZE_CAP:
        raise ActionError("size cap exceeded")
    if sum(math.comb(d - 1 - c, k - 1) * q ** (d - k - c)
           for c in range(d - k + 1)) > SIZE_CAP:
        raise ActionError("size cap exceeded")
    pivots = np.array(list(itertools.combinations(range(d), k)), dtype=np.int64)
    pivotal = np.zeros((len(pivots), d), dtype=bool)
    pivotal[np.arange(len(pivots))[:, None], pivots] = True
    n = np.ones(len(pivots), dtype=np.int64)        # partial bases per pattern
    # the candidates of the rows built, the pattern of each, and chosen[j, i],
    # the row j of partial basis i (the partial bases come pattern by pattern)
    rows, owner = np.zeros((0, d), dtype=np.int64), np.zeros(0, dtype=np.int64)
    chosen = np.zeros((0, len(n)), dtype=np.int64)
    for r in range(k):
        free = (np.arange(d) > pivots[:, r, None]) & ~pivotal
        counts = np.where(n > 0, q ** free.sum(axis=1), 0)   # at most row 0's
        if (n * counts).max(initial=0) > SIZE_CAP:
            raise ActionError("size cap exceeded")
        at = np.repeat(np.arange(len(n)), counts)   # each candidate's pattern
        counter = np.arange(len(at)) - np.repeat(_starts(counts), counts)
        # the digits in place, so the table is the one large array
        C = (q ** np.where(free, np.cumsum(free, axis=1) - 1, 0))[at]
        np.floor_divide(counter[:, None], C, out=C)
        C %= q
        C *= free[at]
        C[np.arange(len(C)), pivots[at, r]] = 1
        if form is not None:
            value = (linalg.eval_quadratic_batch(form, C) if form.kind == "quadratic"
                     else linalg.eval_bilinear_batch(form, C, C))
            C, at = C[value == 0], at[value == 0]
        s = np.bincount(at, minlength=len(n))
        if form is not None:
            # orth[start[t] + c]: the form vanishes on row t and candidate c
            # of its pattern
            sizes = s[owner]
            if sizes.sum() > SIZE_CAP:
                raise ActionError("size cap exceeded")
            orth = np.empty(sizes.sum(), dtype=bool)
            for lo, t, c in _runs(sizes, max(1, PAIR_CODES // d)):
                orth[lo:lo + len(t)] = linalg.eval_bilinear_batch(
                    form, rows[t], C[_starts(s)[owner[t]] + c]) == 0
            start = _starts(sizes)[chosen]
        # the pairs: candidate c of pattern p = at[c] with each partial basis
        # a of p, the partial bases varying fastest
        kept, found = [(np.zeros(0, dtype=np.int64),) * 2], 0
        for _, c, a in _runs(n[at], PAIR_CODES):
            a += _starts(n)[at[c]]
            if form is not None:
                ok = orth[start[:, a] + c - _starts(s)[at[c]]].all(axis=0)
                c, a = c[ok], a[ok]
            found += len(c)
            if found > SIZE_CAP:
                raise ActionError("size cap exceeded")
            kept.append((c, a))
        c, a = map(np.concatenate, zip(*kept))
        n = np.bincount(at[c], minlength=len(n))
        chosen = np.concatenate([chosen.take(a, axis=1), len(rows) + c[None]])
        rows, owner = np.concatenate([rows, C]), np.concatenate([owner, at])
    if admit is not None:
        step = max(1, PAIR_CODES // (k * d))
        keep = np.empty(chosen.shape[1], dtype=bool)
        for a in range(0, len(keep), step):
            keep[a:a + step] = admit(rows.take(chosen[:, a:a + step].T, axis=0))
        chosen = chosen[:, keep]
    return rows.take(chosen.T, axis=0)


def _starts(sizes):
    """Where each of consecutive blocks of these sizes starts."""
    return np.cumsum(sizes) - sizes


def _runs(lengths, step):
    """Runs of these lengths laid end to end, in blocks of whole runs of
    about step elements (more when one run is longer): (lo, i, j) per
    block, element lo + x of the block being element j[x] of run i[x]."""
    ends = np.cumsum(lengths)
    a = 0
    while a < len(lengths):
        lo = ends[a] - lengths[a]
        b = max(a + 1, np.searchsorted(ends, lo + step, side="right"))
        i = np.repeat(np.arange(a, b), lengths[a:b])
        yield lo, i, np.arange(len(i)) - np.repeat(_starts(lengths[a:b]), lengths[a:b])
        a = b


def _check_dimension(d, k):
    if not 1 <= k < d:
        raise ActionError(f"subspace dimension k={k} must satisfy 1 <= k < d={d}")


def _refuse_power(q, e):
    """Refuse a build that holds at least q^e of something, q >= 2; the
    exponent is capped where the power passes SIZE_CAP, so a huge e costs
    nothing."""
    if q ** min(e, SIZE_CAP.bit_length()) > SIZE_CAP:
        raise ActionError("size cap exceeded")


def gaussian_binomial(d, k, q):
    num = den = 1
    for i in range(min(k, d - k)):        # [d k]_q = [d d-k]_q
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# -- domain builders ----------------------------------------------------------

def build_subspace_domain(d, q, k):
    """All k-subspaces of GF(q)^d (the linear-family domain); at k = 1 the
    projective points, N = (q^d - 1)/(q - 1)."""
    F = gf.field_of_order(q)
    return ActionDomain(enumerate_subspaces(F, d, k), F, d, (k,))


def witt_index(form):
    """Maximal dimension of a totally singular subspace, from the form's
    standard shape."""
    d = form.dim
    if form.kind in ("symplectic", "hermitian"):
        return d // 2
    if form.kind == "quadratic":
        return d // 2 - form.meta.get("witt_defect", 0)
    raise ActionError("witt index undefined for this form kind")


def build_totally_singular(form, k, family=None):
    """All totally singular k-subspaces of the form's space, never built
    from the whole Grassmannian: enumerate_subspaces(F, d, k, form) extends
    a partial basis only by singular rows (Q(v) = 0, or h(v, v) = 0)
    orthogonal under the polar form to its rows, row by row for every
    pivot pattern at once.  is_totally_singular re-checks the result.

    family in {'greek', 'latin'} selects one of the two classes of
    maximal totally singular subspaces of a plus-type quadratic space
    (same family iff the codimension of the intersection is even, i.e.
    dim(W + W') - k is even); 'greek' is the family of the
    lexicographically least subspace.
    """
    F = form.field
    d = form.dim
    _check_dimension(d, k)
    if k > witt_index(form):
        raise ActionError(f"k={k} exceeds the Witt index {witt_index(form)}")
    if family not in (None, "greek", "latin"):
        raise ActionError(f"unknown family {family!r}: use 'greek' or 'latin'")
    if family is not None and (form.kind != "quadratic" or k != d // 2
                               or form.meta.get("witt_defect") != 0):
        raise ActionError("family split only for maximal t.s. subspaces, plus type")

    S = enumerate_subspaces(F, d, k, form)
    if not is_totally_singular(form, S).all():
        raise ActionError("a built basis is not totally singular")
    dom = ActionDomain(S, F, d, (k,), form=form)
    if family is None:
        return dom
    [S] = dom.bases()
    greek = (rank_stack(F, np.concatenate([np.broadcast_to(S[0], S.shape), S], axis=1))
             - k) % 2 == 0
    return ActionDomain(S[greek == (family == "greek")], F, d, (k,), form=form)


def build_nonsingular_points(form):
    """All 1-subspaces <v> with Q(v) != 0, for an even-q quadratic form;
    enumerate_subspaces keeps only those, a block of points at a time."""
    F = form.field
    if form.kind != "quadratic":
        raise ActionError("non-singular points need a quadratic form")
    if F.p != 2:
        raise ActionError("non-singular 1-subspaces arise as a subspace action "
                          "only in even characteristic")
    d = form.dim
    S = enumerate_subspaces(
        F, d, 1, admit=lambda B: linalg.eval_quadratic_batch(form, B[:, 0]) != 0)
    return ActionDomain(S, F, d, (1,), form=form)


def build_pair_domain(d, q, k, mode):
    """Pairs {W, U} with dim W = k, dim U = d-k and either V = W + U
    (mode 'complement') or W <= U (mode 'incident'), i.e. dim(W + U) is d
    or d - k; k < d/2, so the pair is canonically ordered with the
    k-dimensional member first.

    U is an RREF basis, the identity on its d - k pivot columns.  The W
    inside U are L U, L over the RREF k-subspaces of GF(q)^(d-k); L U is
    RREF, as it reads L on U's pivot columns.  W + U = W' + U for W' = W
    reduced modulo those columns, so the pair is a complement when W'
    on U's free columns, R = W K^T (K = free_column_kernel(U)), has rank
    k.  Blocks hold about PAIR_CODES codes.  The count of pairs, [d k]_q
    q^(k(d-k)) or [d k]_q [d-k k]_q, meets SIZE_CAP before any member is
    built, and its lower bound q^(k(d-k)) before the count."""
    if mode not in ("complement", "incident"):
        raise ActionError(f"unknown pair mode {mode!r}")
    if not 1 <= k < d / 2:
        raise ActionError("pair domains need 1 <= k < d/2")
    F = gf.field_of_order(q)
    _refuse_power(q, k * (d - k))
    if gaussian_binomial(d, k, q) * (q ** (k * (d - k)) if mode == "complement"
                                     else gaussian_binomial(d - k, k, q)) > SIZE_CAP:
        raise ActionError("size cap exceeded")
    big = enumerate_subspaces(F, d, d - k)
    pairs = []
    if mode == "incident":
        L = enumerate_subspaces(F, d - k, k)
        step = max(1, PAIR_CODES // (len(L) * d * d))
        for a in range(0, len(big), step):
            U = np.repeat(big[a:a + step], len(L), axis=0)
            W = mat_mul(F, np.tile(L, (len(U) // len(L), 1, 1)), U)
            pairs.append(np.concatenate([W, U], axis=1))
    else:
        small = enumerate_subspaces(F, d, k)
        KT = np.swapaxes(linalg.free_column_kernel(F, big), 1, 2)     # (n, d, k)
        step = max(1, PAIR_CODES // (len(big) * k * k))
        for a in range(0, len(small), step):
            W = small[a:a + step]
            R = mat_mul(F, W[:, None], KT).reshape(-1, k, k)
            s, b = np.divmod(np.flatnonzero(rank_stack(F, R) == k), len(big))
            pairs.append(np.concatenate([W[s], big[b]], axis=1))
    return ActionDomain(np.concatenate(pairs), F, d, (k, d - k))


def build_quad_forms_domain(m, q, sign):
    """The quadratic forms theta_a polarising to the standard symplectic
    form on GF(q)^{2m}, q even, parametrized by a; sign '+' keeps those
    with Tr(theta_0(a)) = 0, '-' those with trace 1.
    """
    F = gf.field_of_order(q)
    if F.p != 2:
        raise ActionError("the forms domain lives in characteristic 2")
    _refuse_power(q, 2 * m)
    if sign not in ("+", "-"):
        raise ActionError(f"unknown sign {sign!r}")
    d = 2 * m
    theta0 = quadratic_theta0(F, d)
    vs = linalg.all_row_vectors(F, d)
    traces = trace_bit(F, linalg.eval_quadratic_batch(theta0, vs))
    return ActionDomain(vs[traces == int(sign == "-")], F, d, (), form=theta0)


def build_nondegenerate_domain(form, k):
    """All non-degenerate k-subspaces for the form: enumerate_subspaces
    keeps only the bases is_nondegenerate passes, a block at a time.
    Whether these split into several socle orbits is the caller's concern
    (run the orbit algorithm downstream); no canonical orbit is selected
    here."""
    F = form.field
    S = enumerate_subspaces(F, form.dim, k, admit=lambda B: is_nondegenerate(form, B))
    return ActionDomain(S, F, form.dim, (k,), form=form)


# -- permutation induction -----------------------------------------------------

# Elements are induced in stacks whose largest product holds about this
# many codes (32 KiB of int64), at least one element.
INDUCE_CODES = 1 << 12


def _act_subspaces(F, M, frob_power, dual, B):
    """RREF bases (m, n, k', d) of the images of the row spaces of a stack
    B (n, k, d) of rank-k bases under each element frob^k . M[j] of a
    stack M (m, d, d); under duality elements, of the annihilators of
    those images.  One batched product, RREF and annihilator."""
    P = mat_mul(F, F.frob(B, frob_power), M[:, None])
    R = rref_stack(F, P.reshape(len(M) * len(B), *B.shape[1:]))
    if dual:
        R = annihilator(F, R)
    return R.reshape(len(M), len(B), *R.shape[1:])


def _act_forms(dom, M, frob_power):
    """theta_a^g(u) = (theta_a(u g^{-1}))^{sigma^k} for each g = sigma^k . M[j]:
    recover the parameter of every image form from its values on the
    standard basis, one (m, N, d) stack.

    theta_0 vanishes on every basis vector, so with s_i = theta_a^g(e_i)
    the image parameter solves phi(e_i, a') = sqrt(s_i); with the
    standard f = (0 I; I 0) in characteristic 2 that gives a' = w f.
    """
    F = dom.field
    theta0 = dom.form
    rows = linalg.inverse(F, F.frob(M, -frob_power))   # e_i g^{-1}, as rows
    phi = linalg.eval_bilinear_batch(theta0, rows[:, None],
                                     dom.codes[None, :, None, :])
    s = F.add(linalg.eval_quadratic_batch(theta0, rows)[:, None], F.mul(phi, phi))
    w = F.frob(s, frob_power + F.f - 1)  # sigma^k, then the square root
    return mat_mul(F, w, theta0.polar_gram())


def induce_images(M, frob_power, dual, dom):
    """The image of every point under each element of one class, the
    elements frob^k . M[j] of a stack M (m, d, d) with k = frob_power,
    each followed by the duality if dual: one (m, N) int32 array of image
    rows.  The lookup raises if an image falls outside the domain (the
    domain is then not invariant: a construction bug, per the domain
    contracts)."""
    out = np.empty((len(M), dom.N), dtype=np.int32)
    if not dom.N:                   # an empty domain: nothing to permute
        return out
    if not dom.dims and dual:
        raise ActionError("duality elements do not act on the forms domain")
    members = dom.members()
    step = max(1, INDUCE_CODES // (dom.N * dom.d * max(dom.dims + (1,))))
    for a in range(0, len(M), step):
        S = M[a:a + step]
        parts = ([_act_subspaces(dom.field, S, frob_power, dual, B)[:, at]
                  for B, at in members]
                 if dom.dims else [_act_forms(dom, S, frob_power)])
        if dual:
            parts.reverse()         # the members of a pair swap dimensions
        rows = np.concatenate([P.reshape(len(S) * dom.N, -1) for P in parts], axis=1)
        out[a:a + step] = dom.indices(rows).reshape(len(S), -1)
    return out


def build_group_action(spec, dom):
    """classical_generators -> induced permutation group, applying the
    derived-subgroup flag at the permutation level.  The group's matrix
    field and dimension must be the domain's.  The group carries the
    order bound of _order_bound, which its chain targets."""
    if not isinstance(spec, GroupSpec):
        spec = GroupSpec.deserialize(spec)
    F = spec.matrix_field()
    if F != dom.field:
        raise ActionError(f"group {spec.family}({spec.d},{spec.q}) has matrices "
                          f"over {F!r} but the domain lives over {dom.field!r}")
    if spec.d != dom.d:
        raise ActionError(f"group {spec.family}({spec.d},{spec.q}) acts on "
                          f"dimension {spec.d} but the domain's ambient "
                          f"dimension is {dom.d}")
    if dom.N > perm.DEGREE_CAP:
        raise ActionError(f"the domain has {dom.N} points, more than the permutation "
                          f"degree cap {perm.DEGREE_CAP}")
    socle, form = classical_generators(spec)
    outer = [outer_element(ext, spec) for ext in spec.extensions]
    G = PermGroup(dom.N, np.concatenate(
        [induce_images(socle, 0, False, dom)]
        + [induce_images(A[None], k, dual, dom) for A, k, dual in outer]))
    if spec.derived:
        return derived_subgroup(G)
    G._order_bound = _order_bound(spec, socle, outer, form, dom)
    return G


def _order_bound(spec, socle, outer, form, dom):
    """A proven upper bound U on the order of the group G that the socle
    stack and the outer elements of the spec induce on dom, or None: for
    derived specs, two extensions, an outer element whose matrix is not
    the identity ('diag', or 'frob' on a form it moves), or a failed check
    below.

    Let X be the spec's matrix group, of order matrix_group_order(spec),
    and o its outer element, if any (else o = 1, n = 1): o^n = 1 for
    n = 2 (dual) or n = f / gcd(f, k) (frob:k over GF(p^f)).  Let c be
    conjugation by o: c(M) = M^-T for the duality, the Frobenius twist
    of M's entries for frob.  U is given only when
    - every socle generator h lies in X (in_matrix_group: the form is
      preserved, det = 1 where the family needs it, Dickson invariant 0
      for Omega in characteristic 2), and
    - o normalizes what they generate: every conjugate c^j(h),
      0 < j < n, lies in X;
    and then U = n |X| / s, where s counts the scalars of X whose
    induced permutation fixes every point: all of them on a subspace
    domain, since a scalar fixes every subspace, and on the forms domain
    those the induction finds.

    Proof that |G| <= U.  Let S be those s scalars and L the group
    generated by S and the c^j(h), 0 <= j < n.  Each of them lies in X,
    so L <= X.  Since c^n = 1, c permutes the c^j(h); it maps S into S,
    since a twist or an inverse of a scalar of X is one (the conditions
    on a scalar are equations over the prime field), and a conjugate of
    an element acting trivially acts trivially.  So o normalizes L,
    and Y = L<o> has order at most n |L| <= n |X|.  Y acts on dom, and
    contains every generator, so G is the image of a subgroup of
    Y; the kernel of that action contains S, so |G| <= |Y| / s <= U.

    The product of a chain's basic orbit lengths never exceeds |G| (see
    perm), so a chain that reaches U is complete and |G| = U.  A U above
    |G| is never reached, and the chain closes as one with no target.
    """
    F = spec.matrix_field()
    I = linalg.identity(F, spec.d)
    if spec.derived or len(outer) > 1 or any((A != I).any() for A, _, _ in outer):
        return None
    n, conjugates = 1, []
    for _, k, dual in outer:        # at most one, with the identity matrix
        if dual:
            n, conjugates = 2, [np.swapaxes(linalg.inverse(F, socle), 1, 2)]
        else:
            n = F.f // math.gcd(F.f, k)
            conjugates = [F.frob(socle, j * k) for j in range(1, n)]
    if not all(in_matrix_group(spec, form, C).all() for C in [socle] + conjugates):
        return None
    Z = F.mul(np.arange(1, F.q)[:, None, None], I)
    Z = Z[in_matrix_group(spec, form, Z)]
    if dom.dims:                    # a scalar fixes every subspace
        s = len(Z)
    else:
        s = int((induce_images(Z, 0, False, dom) == np.arange(dom.N)).all(axis=1).sum())
    return n * matrix_group_order(spec) // s


# -- descriptor dispatch -------------------------------------------------------

# Every domain kind a descriptor may name: kind -> (builder, the keys the
# descriptor reads after 'kind', in order, the builder arguments the kind
# fixes).  A 'form' is read with d and q as the FormSpec of that name.
DOMAIN_KINDS = {
    "projective_points": (build_subspace_domain, "d q", {"k": 1}),
    "subspaces_k": (build_subspace_domain, "d q k", {}),
    "totally_singular_k": (build_totally_singular, "form d q k", {}),
    "max_isotropic_family": (build_totally_singular, "form d q k family", {}),
    "nonsingular_1": (build_nonsingular_points, "form d q", {}),
    "pair_complement": (build_pair_domain, "d q k", {"mode": "complement"}),
    "pair_incident": (build_pair_domain, "d q k", {"mode": "incident"}),
    "quad_forms_plus": (build_quad_forms_domain, "m q", {"sign": "+"}),
    "quad_forms_minus": (build_quad_forms_domain, "m q", {"sign": "-"}),
    "nondegenerate_k": (build_nondegenerate_domain, "form d q k", {}),
}


def build_domain(desc):
    """Build a domain from a JSON-style descriptor {kind, params...}."""
    if not isinstance(desc, dict):
        raise ActionError("action descriptor must be a JSON object")
    if "kind" not in desc:
        raise ActionError("action descriptor is missing 'kind'")
    kind = desc["kind"]
    if not isinstance(kind, str) or kind not in DOMAIN_KINDS:
        raise ActionError(f"unknown domain kind {kind!r}")
    builder, reads, fixed = DOMAIN_KINDS[kind]
    reads = ["kind"] + reads.split()
    for key in desc:
        if key not in reads:
            raise ActionError(f"action descriptor {kind!r} has key {key!r}, which it "
                              f"does not read; it reads: {', '.join(reads)}")
    args = {}
    for key in reads[1:]:
        if key not in desc:
            raise ActionError(f"action descriptor {kind!r} is missing {key!r}")
        # every key but the two names is an integer, and JSON true is not
        if key not in ("form", "family") and type(desc[key]) is not int:
            raise ActionError(f"action descriptor {kind!r} needs an integer {key!r}")
        if key in ("d", "m") and desc[key] < 1:
            raise ActionError(f"action descriptor {kind!r} needs a positive {key!r}, "
                              f"got {desc[key]}")
        args[key] = desc[key]
    if "form" in args:
        args["form"] = _form_from_name(args["form"], args.pop("d"), args.pop("q"))
    return builder(**args, **fixed)


# The forms a descriptor names, each built from GF(q) and d.
FORMS = {
    "symplectic": symplectic_form,
    **dict.fromkeys(("quadratic_plus", "plus", "+"), linalg.quadratic_plus),
    **dict.fromkeys(("quadratic_minus", "minus", "-"), linalg.quadratic_minus),
    "hermitian": lambda F, d: linalg.hermitian_form(gf.make_field(F.p, 2 * F.f), d),
}


def _form_from_name(name, d, q):
    """The named form on GF(q)^d, refused before its d x d Gram is built
    when its domain could not be: a form domain is either k-subspaces
    with k at most the Witt index d/2, whose row 0 has at least q^(d-k)
    candidates, or filtered from a Grassmannian, of at least q^(d-1)."""
    F = gf.field_of_order(q)
    if not isinstance(name, str) or name not in FORMS:
        raise ActionError(f"unknown form name {name!r}")
    _refuse_power(q, d - d // 2)
    return FORMS[name](F, d)
