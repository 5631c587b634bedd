"""Indexed point domains for the classical-group actions, and induction
of permutations from classes of elements.

A domain is one (N, w) int64 code array, a row per point: the flattened
RREF basis of a subspace, the two bases of a pair side by side, or the
parameter vector a of a quadratic form theta_a.  Rows are sorted by their
bytes, so indices are deterministic, and a row's index is found by binary
search; point labels are still representation-dependent and never
asserted across builds with a different field or form convention.
Construction re-checks the defining predicate of every point as a mask
over a stack of bases: the whole stack of candidates, or for totally
singular subspaces the bases built a row at a time.

Induction works on one class of elements at a time: a matrix stack M
(m, d, d) with one Frobenius power k and one duality flag, as the groups
module gives them.  A class acts on the whole point array at once: for
subspaces one batched product, one elimination and, for a duality, one
annihilator (`_act_subspaces`); for forms one stacked inverse and one
affine map (`_act_forms`); then one index lookup for all the images.
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
    annihilator, eval_form, is_nondegenerate, is_totally_singular, mat_mul,
    quadratic_theta0, rank_stack, rref_stack, symplectic_form,
)
from .perm import PermGroup, derived_subgroup

SIZE_CAP = 10**6


class ActionError(ValueError):
    pass


def _keys(rows):
    """One void key per row of a 2-d array; keys order as the rows' bytes."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(f"V{8 * rows.shape[1]}").ravel()


class ActionDomain:
    """An indexed point set over GF(q)^d.  Row i of `codes` is point i:
    the RREF bases of subspaces of dimensions `dims` side by side (one
    subspace, or the two members of a pair), or for the forms domain
    (dims = ()) the parameter vector of the form."""

    def __init__(self, kind, codes, field, d, dims, params=None, form=None):
        if len(codes) > SIZE_CAP:
            raise ActionError(f"domain size {len(codes)} exceeds cap")
        codes = np.asarray(codes, dtype=np.int64)
        codes = codes.reshape(len(codes), d * sum(dims) if dims else d)
        keys = _keys(codes)
        order = np.argsort(keys, kind="stable")
        self.kind = kind
        self.codes = codes[order]
        self.codes.setflags(write=False)
        self._keys = keys[order]
        self.field = field
        self.d = d
        self.dims = tuple(dims)
        self.params = dict(params or {})
        self.form = form
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
        ok = rows.shape[1:] == self.codes.shape[1:]
        if ok:
            keys = _keys(rows)
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

    def describe(self):
        return {"kind": self.kind, "N": self.N, **self.params}


# -- subspace enumeration -----------------------------------------------------

def _pattern_rows(F, d, pivots, r):
    """Every candidate for row r of an RREF basis with these pivots: 1 at
    pivots[r], 0 left of it and in the other pivot columns, and in the free
    columns right of it the base-q digits of a counter, least significant first."""
    free = [c for c in range(pivots[r] + 1, d) if c not in pivots]
    out = np.zeros((F.q ** len(free), d), dtype=np.int64)
    out[:, pivots[r]] = 1
    out[:, free] = np.arange(len(out))[:, None] // F.q ** np.arange(len(free)) % F.q
    return out


def enumerate_subspaces(F, d, k):
    """All k-dimensional subspaces of GF(q)^d as one (n, k, d) stack of
    RREF bases: pivot patterns in lexicographic order, and within one the
    free entries (row by row, left to right) are the base-q digits of a
    counter, least significant first."""
    out = np.zeros((gaussian_binomial(d, k, F.q), k, d), dtype=np.int64)
    at = 0
    for pivots in itertools.combinations(range(d), k):
        rows = [_pattern_rows(F, d, pivots, r) for r in range(k)]
        shape = [len(R) for R in reversed(rows)]        # row 0 varies fastest
        block = out[at:at + math.prod(shape)].reshape(shape + [k, d])
        for r, R in enumerate(rows):
            block[..., r, :] = R.reshape([1] * (k - 1 - r) + [len(R)] + [1] * r + [d])
        at += math.prod(shape)
    return out


def gaussian_binomial(d, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _check_grassmannian(d, k, q):
    """Refuse k outside 1 <= k < d, or more k-subspaces of GF(q)^d than SIZE_CAP."""
    if not 1 <= k < d:
        raise ActionError(f"subspace dimension k={k} must satisfy 1 <= k < d={d}")
    if gaussian_binomial(d, k, q) > SIZE_CAP:
        raise ActionError("size cap exceeded")


# -- domain builders ----------------------------------------------------------

def build_projective_points(d, q):
    """All 1-subspaces of GF(q)^d; N = (q^d - 1)/(q - 1)."""
    F = gf.field_of_order(q)
    _check_grassmannian(d, 1, q)
    return ActionDomain("projective_points", enumerate_subspaces(F, d, 1), F, d,
                        (1,), {"d": d, "q": q})


def build_subspace_domain(d, q, k):
    """All k-subspaces of GF(q)^d (the linear-family domain)."""
    F = gf.field_of_order(q)
    _check_grassmannian(d, k, q)
    return ActionDomain("subspaces_k", enumerate_subspaces(F, d, k), F, d, (k,),
                        {"d": d, "q": q, "k": k})


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
    """All totally singular k-subspaces of the form's space.

    The RREF bases are built a row at a time for each pivot pattern, never
    the whole Grassmannian: row r is a candidate of _pattern_rows that is
    singular (Q(v) = 0, or h(v, v) = 0) and orthogonal under the polar
    form to the rows before it; a pattern stops when no partial basis is
    left.  is_totally_singular re-checks the result.

    family in {'greek', 'latin'} selects one of the two classes of
    maximal totally singular subspaces of a plus-type quadratic space
    (same family iff the codimension of the intersection is even, i.e.
    dim(W + W') - k is even); 'greek' is the family of the
    lexicographically least subspace.
    """
    F = form.field
    d = form.dim
    _check_grassmannian(d, k, F.q)
    if k > witt_index(form):
        raise ActionError(f"k={k} exceeds the Witt index {witt_index(form)}")
    if family not in (None, "greek", "latin"):
        raise ActionError(f"unknown family {family!r}: use 'greek' or 'latin'")
    if family is not None and (form.kind != "quadratic" or k != d // 2
                               or form.meta.get("witt_defect") != 0):
        raise ActionError("family split only for maximal t.s. subspaces, plus type")
    found = []
    for pivots in itertools.combinations(range(d), k):
        P = np.zeros((1, 0, d), dtype=np.int64)     # the partial bases
        for r in range(k):
            C = _pattern_rows(F, d, pivots, r)
            C = C[(linalg.eval_quadratic_batch(form, C) if form.kind == "quadratic"
                   else linalg.eval_bilinear_batch(form, C, C)) == 0]
            ok = np.ones((len(P), len(C)), dtype=bool)
            for j in range(r):
                ok &= linalg.eval_bilinear_batch(form, P[:, j, None], C[None]) == 0
            a, b = np.nonzero(ok)
            P = np.concatenate([P[a], C[b, None]], axis=1)
            if not len(P):
                break
        else:
            found.append(P)
    S = np.concatenate(found)
    if not is_totally_singular(form, S).all():
        raise ActionError("a built basis is not totally singular")
    params = {"d": d, "q": F.q, "k": k, "form": form.kind}
    dom = ActionDomain("totally_singular_k", S, F, d, (k,), params, form=form)
    if family is None:
        return dom
    [S] = dom.bases()
    greek = (rank_stack(F, np.concatenate([np.broadcast_to(S[0], S.shape), S], axis=1))
             - k) % 2 == 0
    params["family"] = family
    return ActionDomain("max_isotropic_family", S[greek == (family == "greek")],
                        F, d, (k,), params, form=form)


def build_nonsingular_points(form):
    """All 1-subspaces <v> with Q(v) != 0, for an even-q quadratic form."""
    F = form.field
    if form.kind != "quadratic":
        raise ActionError("non-singular points need a quadratic form")
    if F.p != 2:
        raise ActionError("non-singular 1-subspaces arise as a subspace action "
                          "only in even characteristic")
    d = form.dim
    S = enumerate_subspaces(F, d, 1)
    params = {"d": d, "q": F.q, "witt_defect": form.meta.get("witt_defect")}
    if "mu" in form.meta:
        params["mu"] = int(form.meta["mu"])   # elliptic-form parameter choice
    return ActionDomain("nonsingular_1",
                        S[linalg.eval_quadratic_batch(form, S[:, 0]) != 0], F, d,
                        (1,), params, form=form)


# Pair domains decide (small x big) blocks of about this many remainder codes
# (512 KiB of int64); blocks of BLOCK_CODES fall out of cache and run slower.
PAIR_CODES = 1 << 16


def build_pair_domain(d, q, k, mode):
    """Pairs {W, U} with dim W = k, dim U = d-k and either V = W + U
    (mode 'complement') or W <= U (mode 'incident'), i.e. dim(W + U) is d
    or d - k; k < d/2, so the pair is canonically ordered with the
    k-dimensional member first.

    U is an RREF basis, so W + U = W' + U for W' = W reduced modulo U's
    d - k pivot columns, and W' is zero there: dim(W + U) = d - k + rank
    of the k x k remainder R = W K^T, W' read on U's k free columns
    (K = free_column_kernel of U).  The pair is a complement when R has
    rank k, incident when R is zero."""
    if mode not in ("complement", "incident"):
        raise ActionError(f"unknown pair mode {mode!r}")
    if not 1 <= k < d / 2:
        raise ActionError("pair domains need 1 <= k < d/2")
    F = gf.field_of_order(q)
    small = enumerate_subspaces(F, d, k)
    big = enumerate_subspaces(F, d, d - k)
    KT = np.swapaxes(linalg.free_column_kernel(F, big), 1, 2)     # (n, d, k)
    step = max(1, PAIR_CODES // (len(big) * k * k))
    pairs = []
    for a in range(0, len(small), step):
        W = small[a:a + step]
        R = mat_mul(F, W[:, None], KT).reshape(-1, k, k)
        keep = (rank_stack(F, R) == k if mode == "complement"
                else ~R.reshape(len(R), -1).any(axis=1))
        s, b = np.divmod(np.flatnonzero(keep), len(big))
        pairs.append(np.concatenate([W[s], big[b]], axis=1))
    return ActionDomain(f"pair_{mode}", np.concatenate(pairs), F, d, (k, d - k),
                        {"d": d, "q": q, "k": k})


def build_quad_forms_domain(m, q, sign):
    """The quadratic forms theta_a polarising to the standard symplectic
    form on GF(q)^{2m}, q even, parametrized by a; sign '+' keeps those
    with Tr(theta_0(a)) = 0, '-' those with trace 1, None keeps all.
    """
    F = gf.field_of_order(q)
    if F.p != 2:
        raise ActionError("the forms domain lives in characteristic 2")
    if q ** (2 * m) > SIZE_CAP:
        raise ActionError("size cap exceeded")
    d = 2 * m
    theta0 = quadratic_theta0(F, d)
    vs = linalg.all_row_vectors(F, d)
    traces = trace_bit(F, linalg.eval_quadratic_batch(theta0, vs))
    if sign == "+":
        keep, kind = traces == 0, "quad_forms_plus"
    elif sign == "-":
        keep, kind = traces == 1, "quad_forms_minus"
    elif sign is None:
        keep, kind = np.ones(len(vs), bool), "quad_forms_all"
    else:
        raise ActionError(f"unknown sign {sign!r}")
    return ActionDomain(kind, vs[keep], F, d, (), {"m": m, "q": q}, form=theta0)


def build_nondegenerate_domain(form, k):
    """All non-degenerate k-subspaces for the form.  Whether these split
    into several socle orbits is the caller's concern (run the orbit
    algorithm downstream); no canonical orbit is selected here."""
    F = form.field
    d = form.dim
    _check_grassmannian(d, k, F.q)
    S = enumerate_subspaces(F, d, k)
    return ActionDomain("nondegenerate_k", S[is_nondegenerate(form, S)], F, d, (k,),
                        {"d": d, "q": F.q, "k": k, "form": form.kind}, form=form)


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
    step = max(1, INDUCE_CODES // (dom.N * dom.d * max(dom.dims + (1,))))
    for a in range(0, len(M), step):
        S = M[a:a + step]
        parts = ([_act_subspaces(dom.field, S, frob_power, dual, B)
                  for B in dom.bases()]
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
    induced permutation fixes every point.

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
    images = induce_images(Z, 0, False, dom)
    s = int((images == np.arange(dom.N)).all(axis=1).sum())
    return n * matrix_group_order(spec) // s


def theta_value(dom, a, u):
    """theta_a(u) = theta_0(u) + phi(u, a)^2 for a parameter vector a
    (test and report helper)."""
    theta0 = dom.form
    F = theta0.field
    u = np.asarray(u, dtype=np.int64)
    cross = linalg.eval_bilinear_batch(theta0, u, np.asarray(a, dtype=np.int64))
    return int(F.add(eval_form(theta0, u), F.mul(cross, cross)))


# -- descriptor dispatch -------------------------------------------------------

def build_domain(desc):
    """Build a domain from a JSON-style descriptor {kind, params...}."""
    if not isinstance(desc, dict):
        raise ActionError("action descriptor must be a JSON object")
    if "kind" not in desc:
        raise ActionError("action descriptor is missing 'kind'")
    kind = desc["kind"]
    # nonsingular_1 reads "sign" in place of a missing "form"
    form = "sign" if "form" not in desc and "sign" in desc else "form"
    reads = {"projective_points": "d q", "subspaces_k": "d q k", "pair_complement": "d q k",
             "pair_incident": "d q k", "quad_forms_plus": "m q", "quad_forms_minus": "m q",
             "totally_singular_k": "form d q k", "nondegenerate_k": "form d q k",
             "max_isotropic_family": "form d q k family", "nonsingular_1": f"{form} d q",
             }.get(kind if isinstance(kind, str) else None)
    if reads is None:
        raise ActionError(f"unknown domain kind {kind!r}")
    reads = ["kind"] + reads.split()
    for key in desc:
        if key not in reads:
            raise ActionError(f"action descriptor {kind!r} has key {key!r}, which it "
                              f"does not read; it reads: {', '.join(reads)}")

    def need(key):
        if key not in desc:
            raise ActionError(f"action descriptor {kind!r} is missing {key!r}")
        # every key but the two names is an integer, and JSON true is not
        if key not in ("form", "family") and type(desc[key]) is not int:
            raise ActionError(f"action descriptor {kind!r} needs an integer {key!r}")
        if key in ("d", "m") and desc[key] < 1:
            raise ActionError(f"action descriptor {kind!r} needs a positive {key!r}, "
                              f"got {desc[key]}")
        return desc[key]

    if kind == "projective_points":
        return build_projective_points(need("d"), need("q"))
    if kind == "subspaces_k":
        return build_subspace_domain(need("d"), need("q"), need("k"))
    if kind in ("totally_singular_k", "max_isotropic_family"):
        form = _form_from_name(need("form"), need("d"), need("q"))
        family = need("family") if kind == "max_isotropic_family" else None
        return build_totally_singular(form, need("k"), family)
    if kind == "nonsingular_1":
        form = _form_from_name(desc.get("form", desc.get("sign", "+")),
                               need("d"), need("q"))
        return build_nonsingular_points(form)
    if kind in ("pair_complement", "pair_incident"):
        return build_pair_domain(need("d"), need("q"), need("k"),
                                 kind.split("_")[1])
    if kind in ("quad_forms_plus", "quad_forms_minus"):
        return build_quad_forms_domain(need("m"), need("q"),
                                       "+" if kind.endswith("plus") else "-")
    form = _form_from_name(need("form"), need("d"), need("q"))     # nondegenerate_k
    return build_nondegenerate_domain(form, need("k"))


def _form_from_name(name, d, q):
    F = gf.field_of_order(q)
    if name == "symplectic":
        return symplectic_form(F, d)
    if name in ("quadratic_plus", "plus", "+"):
        return linalg.quadratic_plus(F, d)
    if name in ("quadratic_minus", "minus", "-"):
        return linalg.quadratic_minus(F, d)
    if name == "hermitian":
        E = gf.make_field(F.p, 2 * F.f)
        return linalg.hermitian_form(E, d)
    raise ActionError(f"unknown form name {name!r}")
