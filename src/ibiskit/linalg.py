"""Matrices and subspaces over GF(q), form evaluation, the
totally-singular and non-degenerate subspace predicates as masks over
stacks of bases, the 4x4 Pfaffian and the Klein map from lines of
PG(3,q) to points of the Pfaffian quadric.

Vectors and matrices carry integer field codes (see gf) in numpy arrays.
A subspace is its basis in reduced row echelon form, with no object
around it, so equality of subspaces is equality of those arrays.
Elimination runs on a whole stack of matrices at once (`rref_stack`,
`rank_stack`, `annihilator`), `mat_mul` broadcasts over leading stack
axes, and the Klein map takes a stack of lines; the one-matrix routines
(`rref`, `det`, `inverse`) are the stack routines on a stack of one.
Sums and meets of subspaces are ranks: dim(U + W) is the rank of the two
bases together, and dim(U meet W) = dim U + dim W - dim(U + W); for an
RREF basis U it is also dim U plus the rank of W reduced modulo U's pivot
columns (`free_column_kernel`), the remainder the pair domains rank.  So
is non-degeneracy: the rank of the Gram matrix restricted to the
subspace.  Both subspace predicates evaluate only the upper triangle of
that Gram, i < j for an alternating form and i <= j otherwise; the form's
symmetry gives the rest.  Form values on whole arrays come from one
Gram-sum loop (`_gram_sum`) over the nonzero Gram entries, which each
FormSpec finds once.
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
    """A B over F; leading stack axes of A and B broadcast."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape[-1] != B.shape[-2]:
        raise LinalgError(f"shape mismatch {A.shape} x {B.shape}")
    out = np.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
                   + (A.shape[-2], B.shape[-1]), dtype=np.int64)
    for k in range(A.shape[-1]):
        out = F.add(out, F.mul(A[..., :, k, None], B[..., None, k, :]))
    return out


def identity(F, n):
    out = np.zeros((n, n), dtype=np.int64)
    np.fill_diagonal(out, 1)
    return out


def _eliminate(F, S):
    """Gauss-Jordan elimination of every matrix of the stack S (n, m, d)
    at once.  Returns (R, scale, rank): R[i] is the RREF of S[i] with its
    zero rows last, scale[i] the product of the pivots divided out,
    negated once per row swap (the determinant of a square S[i] of full
    rank), and rank[i] the number of pivots."""
    R = np.array(S, dtype=np.int64)
    if R.ndim != 3:
        raise LinalgError("need a stack of matrices")
    n, m, d = R.shape
    scale = np.ones(n, dtype=np.int64)
    top = np.zeros(n, dtype=np.int64)        # the next pivot row of each matrix
    for c in range(d):
        if (top == m).all():                  # every matrix has m pivots
            break
        cand = (R[:, :, c] != 0) & (np.arange(m) >= top[:, None])
        hit, i = cand.any(axis=1), cand.argmax(axis=1)   # first candidate row
        idx = np.flatnonzero(hit)
        if not len(idx):
            continue
        # when every matrix pivots here, R is updated through a slice
        at = slice(None) if len(idx) == n else idx
        t, i = top[idx], i[idx]
        row = R[idx, i]
        R[idx, i] = R[idx, t]
        p = row[:, c]
        scale[idx] = F.mul(scale[idx], np.where(i != t, F.neg(p), p))
        row = F.mul(row, F.inv(p)[:, None])
        f = R[at, :, c]         # a view of R when at is a slice: row t is
        f[np.arange(len(idx)), t] = 0   # zeroed here but written last
        R[at] = F.sub(R[at], F.mul(f[:, :, None], row[:, None, :]))
        R[idx, t] = row
        top[idx] += 1
    return R, scale, top


def rref_stack(F, S):
    """The RREF of every matrix of the stack S (n, m, d), zero rows last."""
    return _eliminate(F, S)[0]


def rank_stack(F, S):
    """The rank of every matrix of the stack S (n, m, d)."""
    return _eliminate(F, S)[2]


def rref(F, A):
    """Reduced row echelon form of one matrix, zero rows dropped; returns
    (R, pivot_columns)."""
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2:
        raise LinalgError("need a 2-d array")
    R = rref_stack(F, A[None])[0]
    R = R[R.any(axis=1)]
    return R, (R != 0).argmax(axis=1).tolist()


def free_column_kernel(F, R):
    """For a stack R (n, k, d) of RREF bases of rank k, the stack K
    (n, d - k, d) with K[i] R[i]^T = 0: one row per free column c of R[i],
    with 1 at c and -R[i][r, c] at the pivot of each row r.  A row vector
    w times K[i]^T is w reduced modulo the pivot columns of R[i], read on
    its free columns."""
    n, k, d = R.shape
    stack = np.arange(n)[:, None]
    pivots = (R != 0).argmax(axis=2)
    free = np.ones((n, d), dtype=bool)
    free[stack, pivots] = False
    free = np.nonzero(free)[1].reshape(n, d - k)
    j = np.arange(d - k)
    K = np.zeros((n, d - k, d), dtype=np.int64)
    K[stack, j, free] = 1
    K[stack[:, :, None], j, pivots[:, :, None]] = F.neg(
        np.take_along_axis(R, free[:, None, :], axis=2))
    return K


def annihilator(F, R):
    """RREF bases of {x : R[i] x^T = 0} for a stack R (n, k, d) of RREF
    bases of rank k: the RREF of free_column_kernel."""
    return rref_stack(F, free_column_kernel(F, R))


def inverse(F, A):
    """The inverse of one matrix, or of every matrix of a stack (n, d, d),
    from one elimination of [A | I]."""
    A = np.asarray(A)
    I = identity(F, A.shape[-1])
    R = rref_stack(F, np.concatenate([A, np.broadcast_to(I, A.shape)], axis=-1)
                   .reshape(-1, len(I), 2 * len(I)))
    if not (R[:, :, :len(I)] == I).all():
        raise LinalgError("matrix not invertible")
    return R[:, :, len(I):].reshape(A.shape)


def det(F, A):
    """Determinant, from the elimination's pivots: an int for one matrix,
    an array of them for a stack (n, d, d)."""
    A = np.asarray(A)
    _, scale, rank = _eliminate(F, A if A.ndim == 3 else A[None])
    dets = np.where(rank == A.shape[-1], scale, 0)
    return dets if A.ndim == 3 else int(dets[0])


# -- forms ------------------------------------------------------------------

class FormSpec:
    """A symplectic, hermitian or quadratic form.

    Quadratic forms keep an upper-triangular Gram representative (the
    unique normal form in every characteristic).  Hermitian forms live
    over GF(q^2) and conjugate with x -> x^q.
    """

    KINDS = ("symplectic", "hermitian", "quadratic")

    def __init__(self, kind, field, gram):
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
            if np.any(field.frob(gram.T, field.f // 2) != gram):
                raise LinalgError("hermitian gram must equal its conjugate transpose")
        self.kind = kind
        self.field = field
        self.gram = gram
        self.dim = gram.shape[0]
        self.meta = {}
        self._polar = field.add(gram, gram.T) if kind == "quadratic" else gram
        # the nonzero Gram entries that _gram_sum runs over
        self._terms = _nonzero_terms(gram)
        self._polar_terms = _nonzero_terms(self._polar)

    def polar_gram(self):
        """Gram matrix of the polarization (for quadratic forms)."""
        return self._polar

    def conj(self, a):
        return self.field.frob(a, self.field.f // 2)


def eval_form(form, u, v=None):
    """Evaluate the form: one argument for quadratic, two otherwise."""
    u = np.asarray(u, dtype=np.int64)
    if form.kind == "quadratic":
        if v is not None:
            raise LinalgError("quadratic form takes a single argument")
        if u.shape != (form.dim,):
            raise LinalgError("dimension mismatch")
        return int(eval_quadratic_batch(form, u[None])[0])
    if v is None:
        raise LinalgError(f"{form.kind} form takes two arguments")
    v = np.asarray(v, dtype=np.int64)
    if u.shape != (form.dim,) or v.shape != (form.dim,):
        raise LinalgError("dimension mismatch")
    return int(eval_bilinear_batch(form, u[None], v[None])[0])


def _nonzero_terms(gram):
    """The nonzero entries of a Gram matrix as (i, j, gram[i, j]) int triples."""
    return tuple((int(i), int(j), int(gram[i, j])) for i, j in zip(*np.nonzero(gram)))


def _gram_sum(F, terms, U, V):
    """sum over the terms (i, j, c) of c U[..., i] V[..., j], on matching
    rows (the last axis; leading axes broadcast)."""
    out = None
    for i, j, c in terms:
        term = F.mul(U[..., i], V[..., j])
        term = term if c == 1 else F.mul(c, term)
        out = term if out is None else F.add(out, term)
    if out is None:                             # the zero form
        out = np.zeros(np.broadcast_shapes(U.shape[:-1], V.shape[:-1]), dtype=np.int64)
    return out


def eval_quadratic_batch(form, U):
    """Quadratic values on the rows of U (the last axis)."""
    U = np.asarray(U, dtype=np.int64)
    return _gram_sum(form.field, form._terms, U, U)


def eval_bilinear_batch(form, U, V):
    """Pairwise form(U[k], V[k]) on matching rows (the last axis); the
    polar form for a quadratic form."""
    V = np.asarray(V, dtype=np.int64)
    if form.kind == "hermitian":
        V = form.conj(V)
    return _gram_sum(form.field, form._polar_terms, np.asarray(U, dtype=np.int64), V)


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
    forms Q on each basis row and the polar form on each pair of rows i < j,
    for symplectic forms the form on each pair i < j (it is alternating),
    and for hermitian forms on each pair i <= j (h(v, u) is the conjugate
    of h(u, v))."""
    S = np.asarray(S, dtype=np.int64)
    _, k, d = S.shape
    quadratic = form.kind == "quadratic"
    i, j = np.triu_indices(k, 0 if form.kind == "hermitian" else 1)

    def mask(B):
        ok = ~eval_bilinear_batch(form, B[:, i], B[:, j]).any(axis=1)
        if quadratic:
            ok &= ~eval_quadratic_batch(form, B).any(axis=1)
        return ok
    return _by_blocks(S, k * k * d, mask)


def is_nondegenerate(form, S):
    """True where the row space of S[i] has zero radical, read off the
    rank of the restricted (polar) Gram M of the basis B = S[i]: rank k,
    or, for a quadratic form in characteristic 2, rank k - 1 with Q
    non-zero on the radical <c.B>.  There Q on the polar radical is the
    square of a linear map, so a radical of dimension 2 or more holds a
    nonzero singular vector; M is symmetric, so c spans the annihilator
    of its rows.

    Only the upper triangle of M is evaluated: i < j when the polar form
    is alternating (symplectic, or quadratic in characteristic 2), so its
    diagonal is zero, and i <= j otherwise.  The form's symmetry fills
    the lower triangle: M[j, i] is -M[i, j] for a symplectic form, the
    conjugate of M[i, j] for a hermitian one, and M[i, j] for the polar
    form of a quadratic form."""
    F = form.field
    S = np.asarray(S, dtype=np.int64)
    _, k, d = S.shape
    char2_quadratic = form.kind == "quadratic" and F.p == 2
    alternating = form.kind == "symplectic" or char2_quadratic
    i, j = np.triu_indices(k, 1 if alternating else 0)
    mirror = {"symplectic": F.neg, "hermitian": form.conj}.get(form.kind)

    def mask(B):
        x = eval_bilinear_batch(form, B[:, i], B[:, j])
        M = np.zeros((len(B), k, k), dtype=np.int64)
        M[:, j, i] = x if mirror is None else mirror(x)
        M[:, i, j] = x
        R, _, rank = _eliminate(F, M)
        ok = rank == k
        if char2_quadratic:
            at = np.flatnonzero(rank == k - 1)
            C = annihilator(F, R[at, :k - 1])
            ok[at] = eval_quadratic_batch(form, mat_mul(F, C, B[at])).any(axis=1)
        return ok
    return _by_blocks(S, k * k * d, mask)


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


def hermitian_form(field, d):
    """Anti-diagonal hermitian Gram over GF(q^2)."""
    g = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        g[i, d - 1 - i] = 1
    return FormSpec("hermitian", field, g)


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
    """Least mu with T^2 + T + mu irreducible over GF(q): the least mu
    that is not -(t^2 + t) for any t.  T^2 + T is two-to-one away from at
    most one t, so such a mu exists."""
    t = np.arange(field.q)
    split = np.zeros(field.q, dtype=bool)
    split[field.neg(field.add(field.mul(t, t), t))] = True
    return int(split.argmin())


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


def klein_map(F, L):
    """Map each 2-space <v, w> of GF(q)^4, given as a stack L (n, 2, 4) of
    bases, to the point spanned by the skew matrix v^T w - w^T v in
    coordinates (x12, ..., x34): an (n, 1, 6) stack of RREF bases.

    The image does not depend on the chosen basis, and it is a singular
    point of the Pfaffian quadric.
    """
    L = np.asarray(L, dtype=np.int64)
    if L.ndim != 3 or L.shape[1:] != (2, 4):
        raise LinalgError("klein_map needs a stack of bases of 2-spaces of GF(q)^4")
    i, j = np.array(PFAFFIAN_COORDS).T
    v, w = L[:, 0], L[:, 1]
    X = F.sub(F.mul(v[:, i], w[:, j]), F.mul(w[:, i], v[:, j]))
    return rref_stack(F, X[:, None, :])
