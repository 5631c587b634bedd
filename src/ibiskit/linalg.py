"""Matrices and canonical subspaces over GF(q), form evaluation, the
totally-singular and non-degenerate subspace predicates as masks over
stacks of bases, the 4x4 Pfaffian and the Klein map from lines of
PG(3,q) to points of the Pfaffian quadric.

Vectors and matrices carry integer field codes (see gf) in numpy arrays.
Subspaces are canonicalized to reduced row echelon form, so equality of
subspaces is equality of their canonical bases.
"""

from __future__ import annotations

import numpy as np


class LinalgError(ValueError):
    pass


# -- matrix kernels on code arrays ----------------------------------------

def all_row_vectors(F, d):
    """All q^d row vectors over F, ordered by radix-q code (coordinate 0
    least significant)."""
    return np.arange(F.q**d, dtype=np.int64)[:, None] // F.q ** np.arange(d) % F.q


def mat_mul(F, A, B):
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape[1] != B.shape[0]:
        raise LinalgError(f"shape mismatch {A.shape} x {B.shape}")
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for k in range(A.shape[1]):
        out = F.add(out, F.mul(A[:, k][:, None], B[k, :][None, :]))
    return out


def mat_vec(F, v, A):
    """Row vector times matrix."""
    return mat_mul(F, np.asarray(v)[None, :], A)[0]


def identity(F, n):
    out = np.zeros((n, n), dtype=np.int64)
    np.fill_diagonal(out, 1)
    return out


def rref(F, A):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = np.array(A, dtype=np.int64, copy=True)
    if R.ndim != 2:
        raise LinalgError("need a 2-d array")
    m, n = R.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = F.mul(R[r], F.inv(R[r, c]))
        for j in range(m):
            if j != r and R[j, c]:
                R[j] = F.sub(R[j], F.mul(R[j, c], R[r]))
        pivots.append(c)
        r += 1
    return R[:r], pivots


def kernel(F, A):
    """Basis (rows) of the right kernel {x : A x^T = 0}."""
    A = np.asarray(A)
    R, pivots = rref(F, A)
    n = A.shape[1]
    free = [c for c in range(n) if c not in pivots]
    rows = []
    for c in free:
        v = np.zeros(n, dtype=np.int64)
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r, c])
        rows.append(v)
    if not rows:
        return np.zeros((0, n), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def inverse(F, A):
    A = np.asarray(A)
    n = A.shape[0]
    aug = np.hstack([A, identity(F, n)])
    R, pivots = rref(F, aug)
    if pivots[:n] != list(range(n)):
        raise LinalgError("matrix not invertible")
    return R[:, n:]


def det(F, A):
    """Determinant by Gaussian elimination."""
    R = np.array(A, dtype=np.int64, copy=True)
    n = R.shape[0]
    d = 1
    for c in range(n):
        nz = np.nonzero(R[c:, c])[0]
        if nz.size == 0:
            return 0
        i = c + nz[0]
        if i != c:
            R[[c, i]] = R[[i, c]]
            d = int(F.neg(d))
        d = int(F.mul(d, R[c, c]))
        inv = F.inv(R[c, c])
        for j in range(c + 1, n):
            if R[j, c]:
                R[j] = F.sub(R[j], F.mul(F.mul(R[j, c], inv), R[c]))
    return d


# -- subspaces -------------------------------------------------------------

class Subspace:
    """A subspace of GF(q)^d in reduced-row-echelon canonical form.

    Two subspaces are equal iff their canonical bases are identical.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_key")

    def __init__(self, field, ambient_dim, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis          # numpy (k, d), RREF, no zero rows
        self.pivots = tuple(pivots)
        self._key = (ambient_dim, basis.tobytes())

    @property
    def dim(self):
        return self.basis.shape[0]

    def key(self):
        return self._key

    def contains_vector(self, v):
        v = np.asarray(v, dtype=np.int64)
        red = v.copy()
        F = self.field
        for r, c in enumerate(self.pivots):
            if red[c]:
                red = F.sub(red, F.mul(red[c], self.basis[r]))
        return not red.any()

    def contains(self, other):
        return all(self.contains_vector(row) for row in other.basis)

    def serialize(self):
        return [list(map(int, row)) for row in self.basis]

    def __eq__(self, other):
        return isinstance(other, Subspace) and self._key == other._key \
            and self.field == other.field

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, d={self.ambient_dim})"


def canonicalize(field, ambient_dim, vectors):
    """The canonical Subspace spanned by the given row vectors."""
    rows = [np.asarray(v, dtype=np.int64) for v in vectors]
    for v in rows:
        if v.shape != (ambient_dim,):
            raise LinalgError(f"vector of length {v.shape} in ambient dim {ambient_dim}")
    if rows:
        R, pivots = rref(field, np.array(rows))
    else:
        R, pivots = np.zeros((0, ambient_dim), dtype=np.int64), []
    return Subspace(field, ambient_dim, R, pivots)


def subspace_sum(A, B):
    if A.field != B.field or A.ambient_dim != B.ambient_dim:
        raise LinalgError("ambient mismatch")
    return canonicalize(A.field, A.ambient_dim, list(A.basis) + list(B.basis))


def subspace_meet(A, B):
    """Intersection, via the kernel of the stacked coefficient system."""
    if A.field != B.field or A.ambient_dim != B.ambient_dim:
        raise LinalgError("ambient mismatch")
    F = A.field
    if A.dim == 0 or B.dim == 0:
        return canonicalize(F, A.ambient_dim, [])
    # lambda . A.basis - mu . B.basis = 0  <=>  (lambda, mu) in kernel of stacked^T
    stacked = np.vstack([A.basis, B.basis])
    ker = kernel(F, stacked.T)
    vecs = [mat_vec(F, co[: A.dim], A.basis) for co in ker]
    return canonicalize(F, A.ambient_dim, vecs)


def complement_dual(W):
    """The standard-dot-product annihilator {v : v.w^T = 0 for w in W},
    realizing the polarity of PG(d-1, q) on subspaces."""
    return canonicalize(W.field, W.ambient_dim, kernel(W.field, W.basis))


# -- forms ------------------------------------------------------------------

class FormSpec:
    """A bilinear, symplectic, hermitian or quadratic form.

    Quadratic forms keep an upper-triangular Gram representative (the
    unique normal form in every characteristic).  Hermitian forms live
    over GF(q^2) and conjugate with x -> x^q.
    """

    KINDS = ("symplectic", "hermitian", "quadratic", "bilinear-symmetric")

    def __init__(self, kind, field, gram, conj_power=0):
        if kind not in self.KINDS:
            raise LinalgError(f"unknown form kind {kind!r}")
        gram = np.asarray(gram, dtype=np.int64)
        if kind == "symplectic":
            if np.any(np.diagonal(gram)):
                raise LinalgError("symplectic gram must have zero diagonal")
            if np.any(field.neg(gram.T) != gram):
                raise LinalgError("symplectic gram must be skew")
        if kind == "quadratic":
            if np.any(np.tril(gram, -1)):
                raise LinalgError("quadratic gram must be upper triangular")
        if kind == "hermitian":
            if conj_power == 0:
                conj_power = field.f // 2
            if np.any(field.frob(gram.T, conj_power) != gram):
                raise LinalgError("hermitian gram must equal its conjugate transpose")
        self.kind = kind
        self.field = field
        self.gram = gram
        self.conj_power = conj_power
        self.dim = gram.shape[0]
        self.meta = {}

    def polar_gram(self):
        """Gram matrix of the polarization (for quadratic forms)."""
        F = self.field
        if self.kind == "quadratic":
            return F.add(self.gram, self.gram.T)
        return self.gram

    def conj(self, a):
        return self.field.frob(a, self.conj_power)

    def serialize(self):
        return {"kind": self.kind, "gram": [list(map(int, r)) for r in self.gram]}


def eval_form(form, u, v=None):
    """Evaluate the form: one argument for quadratic, two otherwise."""
    F = form.field
    u = np.asarray(u, dtype=np.int64)
    if form.kind == "quadratic":
        if v is not None:
            raise LinalgError("quadratic form takes a single argument")
        if u.shape != (form.dim,):
            raise LinalgError("dimension mismatch")
        return int(mat_mul(F, mat_mul(F, u[None, :], form.gram), u[:, None])[0, 0])
    if v is None:
        raise LinalgError(f"{form.kind} form takes two arguments")
    v = np.asarray(v, dtype=np.int64)
    if u.shape != (form.dim,) or v.shape != (form.dim,):
        raise LinalgError("dimension mismatch")
    if form.kind == "hermitian":
        v = form.conj(v)
    return int(mat_mul(F, mat_mul(F, u[None, :], form.gram), v[:, None])[0, 0])


def eval_quadratic_batch(form, U):
    """Quadratic values on the rows of U (the last axis), vectorized over
    nonzero Gram entries."""
    F = form.field
    U = np.asarray(U, dtype=np.int64)
    out = np.zeros(U.shape[:-1], dtype=np.int64)
    for i, j in zip(*np.nonzero(form.gram)):
        out = F.add(out, F.mul(int(form.gram[i, j]), F.mul(U[..., i], U[..., j])))
    return out


def eval_bilinear_batch(form, U, V):
    """Pairwise form(U[k], V[k]) on matching rows (the last axis), vectorized;
    the polar form for a quadratic form."""
    F = form.field
    U = np.asarray(U, dtype=np.int64)
    V = np.asarray(V, dtype=np.int64)
    gram = form.polar_gram() if form.kind == "quadratic" else form.gram
    if form.kind == "hermitian":
        V = form.conj(V)
    out = np.zeros(U.shape[:-1], dtype=np.int64)
    for i, j in zip(*np.nonzero(gram)):
        out = F.add(out, F.mul(int(gram[i, j]), F.mul(U[..., i], V[..., j])))
    return out


# -- subspace predicates: boolean masks over a stack S of bases (n, k, d) ----

# The masks run over row blocks of S, each temporary array holding about
# this many codes (8 MiB of int64), so memory stays bounded for any n and q.
BLOCK_CODES = 1 << 20


def _by_blocks(S, width, mask):
    """mask over row blocks of S, width codes of the largest temporary per row."""
    out = np.empty(len(S), dtype=bool)
    step = max(1, BLOCK_CODES // width)
    for a in range(0, len(S), step):
        out[a:a + step] = mask(S[a:a + step])
    return out


def is_totally_singular(form, S):
    """True where the form vanishes on the row space of S[i]: for quadratic
    forms Q on each basis row and the polar form on each pair of rows,
    otherwise the form on every ordered pair of rows."""
    S = np.asarray(S, dtype=np.int64)
    _, k, d = S.shape
    quadratic = form.kind == "quadratic"
    i, j = np.triu_indices(k, 1) if quadratic else np.indices((k, k)).reshape(2, -1)

    def mask(B):
        ok = ~eval_bilinear_batch(form, B[:, i], B[:, j]).any(axis=1)
        if quadratic:
            ok &= ~eval_quadratic_batch(form, B).any(axis=1)
        return ok
    return _by_blocks(S, k * k * d, mask)


def is_nondegenerate(form, S):
    """True where the row space of S[i] has zero radical.  With M the
    restricted (polar) Gram of the basis B = S[i], it is degenerate iff
    c.M = 0 for some nonzero c in GF(q)^k; for a quadratic form c.B must
    also be singular (in characteristic 2 the polar radical may hold
    non-singular vectors).  Both conditions are invariant under scaling c,
    so C holds one c per point of PG(k-1, q): the base-q digits of the
    codes whose top nonzero digit is 1."""
    F = form.field
    S = np.asarray(S, dtype=np.int64)
    _, k, d = S.shape
    i, j = np.indices((k, k)).reshape(2, -1)
    codes = np.array([c for e in range(k) for c in range(F.q**e, 2 * F.q**e)],
                     dtype=np.int64)
    C = codes[:, None] // F.q ** np.arange(k) % F.q

    def mask(B):
        M = eval_bilinear_batch(form, B[:, i], B[:, j]).reshape(len(B), k, k)
        radical = ~_combine(F, C, M).any(axis=2)
        if form.kind == "quadratic":
            radical &= eval_quadratic_batch(form, _combine(F, C, B)) == 0
        return ~radical.any(axis=1)
    return _by_blocks(S, len(C) * d, mask)


def _combine(F, C, X):
    """out[i, m] = sum_a C[m, a] X[i, a]: every combination c in C of the
    rows of each X[i]."""
    out = np.zeros((len(X), len(C), X.shape[2]), dtype=np.int64)
    for a in range(C.shape[1]):
        out = F.add(out, F.mul(C[:, a, None], X[:, None, a]))
    return out


# -- standard forms ----------------------------------------------------------

def symplectic_form(field, d):
    """Gram (0 I; -I 0) on e_1..e_m, f_1..f_m (m = d/2)."""
    if d % 2:
        raise LinalgError("symplectic dimension must be even")
    m = d // 2
    g = np.zeros((d, d), dtype=np.int64)
    for i in range(m):
        g[i, m + i] = 1
        g[m + i, i] = int(field.neg(1))
    return FormSpec("symplectic", field, g)


def hermitian_form(field, d, conj_power=0):
    """Anti-diagonal hermitian Gram over GF(q^2)."""
    g = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        g[i, d - 1 - i] = 1
    return FormSpec("hermitian", field, g, conj_power=conj_power)


def quadratic_theta0(field, d):
    """The quadratic form u e u^T with e = (0 I; 0 0): Q(x) = sum x_i x_{m+i}."""
    if d % 2:
        raise LinalgError("dimension must be even")
    m = d // 2
    g = np.zeros((d, d), dtype=np.int64)
    for i in range(m):
        g[i, m + i] = 1
    return FormSpec("quadratic", field, g)


def quadratic_plus(field, d):
    """Hyperbolic form X1 X2 + X3 X4 + ... + X_{d-1} X_d."""
    if d % 2:
        raise LinalgError("dimension must be even")
    g = np.zeros((d, d), dtype=np.int64)
    for i in range(0, d, 2):
        g[i, i + 1] = 1
    form = FormSpec("quadratic", field, g)
    form.meta["witt_defect"] = 0
    return form


def quadratic_minus(field, d):
    """Elliptic form X1 X_{m+1} + ... + X_{m-1} X_{d-1} + X_m^2 + X_m X_d
    + mu X_d^2, with mu the least scalar making T^2 + T + mu irreducible."""
    if d % 2:
        raise LinalgError("dimension must be even")
    m = d // 2
    mu = _least_nonsplit_mu(field)
    g = np.zeros((d, d), dtype=np.int64)
    for i in range(m - 1):
        g[i, m + i] = 1
    g[m - 1, m - 1] = 1
    g[m - 1, d - 1] = 1
    g[d - 1, d - 1] = mu
    form = FormSpec("quadratic", field, g)
    form.meta["witt_defect"] = 1
    form.meta["mu"] = mu
    return form


def _least_nonsplit_mu(field):
    """Least mu with T^2 + T + mu irreducible over GF(q), by search."""
    for mu in range(field.q):
        ok = True
        for t in range(field.q):
            if int(field.add(field.add(field.mul(t, t), t), mu)) == 0:
                ok = False
                break
        if ok:
            return mu
    raise LinalgError("no irreducible T^2+T+mu; is the field GF(2^f)?")


# -- Pfaffian and the Klein map ----------------------------------------------

def pfaffian4(F, X):
    """Pf(X) = x12 x34 - x13 x24 + x14 x23 for 4x4 skew X with zero diagonal."""
    X = np.asarray(X, dtype=np.int64)
    if X.shape != (4, 4):
        raise LinalgError("pfaffian4 needs a 4x4 matrix")
    if np.any(np.diagonal(X)):
        raise LinalgError("diagonal must be zero")
    if np.any(F.neg(X.T) != X):
        raise LinalgError("matrix must be skew-symmetric")
    t1 = F.mul(X[0, 1], X[2, 3])
    t2 = F.mul(X[0, 2], X[1, 3])
    t3 = F.mul(X[0, 3], X[1, 2])
    return int(F.add(F.sub(t1, t2), t3))


PFAFFIAN_COORDS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def pfaffian_quadric_form(field):
    """The Pfaffian as a quadratic form on coordinates (x12,...,x34)."""
    g = np.zeros((6, 6), dtype=np.int64)
    g[0, 5] = 1
    g[1, 4] = int(field.neg(1))
    g[2, 3] = 1
    return FormSpec("quadratic", field, g)


def skew_to_coords(F, X):
    return np.array([X[i, j] for (i, j) in PFAFFIAN_COORDS], dtype=np.int64)


def klein_map(L):
    """Map a 2-dim subspace <v, w> of GF(q)^4 to the projective point
    spanned by v^T w - w^T v in the 6-dim space of skew matrices.

    The image is independent of the chosen basis up to scalars, and is a
    singular point of the Pfaffian quadric.
    """
    if L.dim != 2 or L.ambient_dim != 4:
        raise LinalgError("klein_map needs a 2-dim subspace of GF(q)^4")
    F = L.field
    v, w = L.basis[0], L.basis[1]
    X = F.sub(F.mul(v[:, None], w[None, :]), F.mul(w[:, None], v[None, :]))
    return canonicalize(F, 6, [skew_to_coords(F, X)])
