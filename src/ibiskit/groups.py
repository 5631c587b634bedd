"""Generator stacks for the classical matrix groups over small finite
fields, together with the outer elements (diagonal, field, duality) used
to extend them.

A class of elements is a matrix stack M (m, d, d) with one Frobenius
power k and one duality flag: each M[j] acts on row vectors as
v -> frob(v, k) . M[j], and under duality then maps a subspace to its
standard annihilator.  `classical_generators` gives the socle generators
as one stack with k = 0 and no duality, and `outer_element` gives each
outer element as one (matrix, k, dual) triple.

Construction strategy: SL, GL and Sp take elementary matrices and
symplectic root elements; one kernel, _root_elements, builds Omega from
Eichler (Siegel) transformations, SU from those and unitary
transvections, and the reflections GO and SO need outside Omega (Omega
at odd q, which would need a spinor-norm test, is not constructed).
`matrix_group_order` gives the textbook order of each matrix group and
`in_matrix_group` tests membership in it; the actions module builds its
proven bound on the order of an induced group from the two.

Projective groups are never formed as abstract quotients: scalars act
trivially on every subspace domain, so inducing the matrix group on the
domain realizes the projective action.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from . import gf, linalg
from .linalg import (
    hermitian_form, mat_mul, quadratic_minus, quadratic_plus, rank_stack,
    symplectic_form,
)


class GroupError(ValueError):
    pass


# Every family a spec may name -> the constructor (field, d) of the
# standard form its matrix group preserves, None for GL and SL.
FAMILIES = {"GL": None, "SL": None, "Sp": symplectic_form,
            "GU": hermitian_form, "SU": hermitian_form,
            "GOplus": quadratic_plus, "GOminus": quadratic_minus,
            "SOplus": quadratic_plus, "SOminus": quadratic_minus,
            "OmegaPlus": quadratic_plus, "OmegaMinus": quadratic_minus}
FROB_CANDIDATES = 2**20     # the most plane matrices _frobenius_companion tries


@dataclass(frozen=True)
class GroupSpec:
    family: str
    d: int
    q: int
    extensions: tuple = ()
    derived: bool = False

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise GroupError(f"unknown family {self.family!r}")
        if FAMILIES[self.family] not in (None, hermitian_form) and self.d % 2:
            raise GroupError(f"{self.family} needs even dimension")
        if not (isinstance(self.extensions, (list, tuple)) and all(
                isinstance(kind, str) and re.fullmatch(r"dual|diag|frob(:-?\d+)?", kind)
                for kind in self.extensions)):
            raise GroupError(f"extensions must be a list of dual, diag, frob or "
                             f"frob:<int>, got {self.extensions!r}")
        if not isinstance(self.derived, bool):
            raise GroupError(f"derived must be true or false, got {self.derived!r}")
        object.__setattr__(self, "extensions", tuple(self.extensions))

    @property
    def is_unitary(self):
        return FAMILIES[self.family] is hermitian_form

    def matrix_field(self):
        """The field the matrices live over: GF(q^2) for unitary."""
        F = gf.field_of_order(self.q)
        if self.is_unitary:
            return gf.make_field(F.p, 2 * F.f)
        return F

    def serialize(self):
        return {"family": self.family, "d": self.d, "q": self.q,
                "extensions": list(self.extensions), "derived": self.derived}

    @classmethod
    def deserialize(cls, data):
        if not isinstance(data, dict):
            raise GroupError("group descriptor must be a JSON object")
        reads = ("family", "d", "q", "extensions", "derived")
        for key in data:
            if key not in reads:
                raise GroupError(f"group descriptor has key {key!r}, which it does not "
                                 f"read; it reads: {', '.join(reads)}")
        for key in ("family", "d", "q"):
            if key not in data:
                raise GroupError(f"group descriptor is missing {key!r}")
        for key in ("d", "q"):
            if type(data[key]) is not int:      # JSON true is no integer
                raise GroupError(f"group descriptor needs an integer {key!r}")
        return cls(data["family"], data["d"], data["q"],
                   data.get("extensions", ()), data.get("derived", False))


# -- form preservation checks ---------------------------------------------

def _preserving(form, M, k):
    """Which elements frob^k . M[j] of a stack M (m, d, d) carry the form
    to itself: M gram M^T = frob(gram, k), with M^T conjugated for a
    hermitian form and both sides folded to upper-triangular
    representatives for a quadratic one.  One stacked product."""
    F = form.field
    MT = np.swapaxes(form.conj(M) if form.kind == "hermitian" else M, 1, 2)
    lhs = mat_mul(F, mat_mul(F, M, form.gram), MT)
    target = F.frob(form.gram, k)
    if form.kind == "quadratic":
        lhs, target = _upper_tri_rep(F, lhs), _upper_tri_rep(F, target)
    return (lhs == target).all(axis=(1, 2))


def in_matrix_group(spec, form, M):
    """Which matrices of a stack M (m, d, d) lie in the spec's matrix
    group, of order matrix_group_order(spec): the invertible ones that
    preserve the form exactly (_preserving), of determinant 1 for SL, SU
    and SO, and for Omega in characteristic 2 of Dickson invariant 0,
    rank(M - 1) even.  None do for Omega in odd characteristic."""
    F = spec.matrix_field()
    dets = linalg.det(F, M)
    ok = dets == 1 if spec.family in ("SL", "SU", "SOplus", "SOminus") else dets != 0
    if form is not None:
        ok &= _preserving(form, M, 0)
    if spec.family.startswith("Omega"):
        ok &= F.p == 2
        ok &= rank_stack(F, F.sub(M, linalg.identity(F, spec.d))) % 2 == 0
    return ok


def _upper_tri_rep(F, A):
    """Fold Gram matrices (the last two axes) to their upper-triangular
    quadratic representatives."""
    return F.add(np.triu(A), np.swapaxes(np.tril(A, -1), -1, -2))


# -- elementary constructions ------------------------------------------------

def _root_elements(form, U, V, A):
    """The stack (n, d, d) of M = I + c_u v - c_v u + a c_u u for the rows
    u, v of U, V and the scalars a of A, with c_x = polar_gram . conj(x)^T:
    x M = x + f(x, u) v - f(x, v) u + a f(x, u) u.  For u singular and v
    orthogonal to it, M is an isometry exactly when a = -Q(v) (the
    Eichler, or Siegel, transformation E(u, v)) or a + a^q = -h(v, v);
    v = 0 gives the transvections, and a non-singular u with a = -1/Q(u)
    the reflection r_u (D. E. Taylor, The Geometry of the Classical
    Groups, 1992).  One stacked product."""
    F = form.field
    U, V = np.asarray(U, dtype=np.int64), np.asarray(V, dtype=np.int64)
    bar = form.conj if form.kind == "hermitian" else (lambda X: X)
    Cu, Cv = (mat_mul(F, bar(X), form.polar_gram().T)[:, :, None] for X in (U, V))
    W = F.add(V, F.mul(np.asarray(A, dtype=np.int64)[:, None], U))
    return F.add(linalg.identity(F, form.dim),
                 F.sub(F.mul(Cu, W[:, None, :]), F.mul(Cv, U[:, None, :])))


def transvection_symplectic(a, form):
    """The matrix of t_a: u -> u + phi(u, a) a, an involution preserving a
    symplectic form in characteristic 2."""
    if form.field.p != 2:
        raise GroupError("symplectic transvections here require characteristic 2")
    if not np.any(a):
        raise GroupError("transvection direction must be nonzero")
    a = np.asarray(a, dtype=np.int64)[None]
    return _root_elements(form, a, 0 * a, [1])[0]


def _field_spanning_scalars(F):
    """Scalars whose F_p-span is all of F: powers of the generator."""
    return F.power(F.generator_code, np.arange(F.f))


def _elementary(F, d, entries):
    """The stack (len(entries), d, d) of identity matrices, the j-th with
    the entries {(row, col): value} of entries[j] set."""
    M = np.tile(linalg.identity(F, d), (len(entries), 1, 1))
    for j, cells in enumerate(entries):
        for (r, c), v in cells.items():
            M[j, r, c] = v
    return M


def _standard_form(spec):
    """The form the spec's matrix group preserves, or None for GL and SL."""
    make = FAMILIES[spec.family]
    return None if make is None else make(spec.matrix_field(), spec.d)


def _linear_generators(spec):
    F = gf.field_of_order(spec.q)
    d = spec.d
    entries = [{(i, j): lam} for i, j in itertools.permutations(range(d), 2)
               for lam in _field_spanning_scalars(F)]
    if spec.family == "GL" and spec.q > 2:
        entries.append({(0, 0): F.generator_code})
    return _elementary(F, d, entries)


def _symplectic_generators(spec, form):
    F = form.field
    d = spec.d
    m = d // 2
    scalars = _field_spanning_scalars(F)
    # the transvections u -> u + t phi(u, a) a for a = e_i, f_i
    entries = [cells for i in range(m) for t in scalars
               for cells in ({(m + i, i): int(F.neg(t))}, {(i, m + i): t})]
    # e_i -> e_i + t e_j and f_j -> f_j - t f_i
    entries += [{(i, j): t, (m + j, m + i): int(F.neg(t))}
                for i, j in itertools.permutations(range(m), 2) for t in scalars]
    entries += [cells for i, j in itertools.combinations(range(m), 2) for t in scalars
                for cells in ({(i, m + j): t, (j, m + i): t},
                              {(m + i, j): t, (m + j, i): t})]
    return _elementary(F, d, entries)


def _basis_root_pairs(form):
    """The rows u = e_i, v = t e_j of the root elements E(u, v) with e_i
    singular, e_j != e_i orthogonal to it, and t in _field_spanning_scalars."""
    F, d = form.field, form.dim
    i, j = np.nonzero((np.diagonal(form.gram) == 0)[:, None] & (form.polar_gram() == 0)
                      & ~np.eye(d, dtype=bool))
    t, I = _field_spanning_scalars(F), linalg.identity(F, d)
    return I[np.repeat(i, len(t))], F.mul(np.tile(t, len(j))[:, None], I[np.repeat(j, len(t))])


def _unitary_generators(spec, form):
    """SU: the E(u, v) of _basis_root_pairs with the least a, and the
    transvections of each isotropic e_i with a over an F_p-basis of the
    trace-zero elements; GU adds diag(mu, 1, ..., 1, mu^-q)."""
    E = form.field
    q, f, mu = spec.q, E.f // 2, E.generator_code
    trace = E.add(np.arange(E.q), form.conj(np.arange(E.q)))      # a + a^q
    U, V = _basis_root_pairs(form)
    A = (trace == E.neg(linalg.eval_bilinear_batch(form, V, V))[:, None]).argmax(axis=1)
    # the trace-zero elements are t0 GF(q), and mu^(q+1) generates GF(q)*
    T = np.repeat(linalg.identity(E, spec.d)[np.diagonal(form.gram) == 0], f, axis=0)
    a = E.mul(np.flatnonzero(trace == 0)[1], E.power(mu, (q + 1) * np.arange(f)))
    M = _root_elements(form, np.concatenate([U, T]), np.concatenate([V, 0 * T]),
                       np.concatenate([A, np.resize(a, len(T))]))
    if spec.family == "GU":
        D = linalg.identity(E, spec.d)
        D[0, 0], D[-1, -1] = mu, E.mul(D[-1, -1], E.power(mu, -q))
        M = np.concatenate([M, D[None]])
    return M


def _orthogonal_generators(spec, form):
    """Omega: the E(u, v) of _basis_root_pairs with a = -Q(v).  GO and SO
    add r_a (Q(a) = 1) and at odd q r_b (Q(b) a non-square), SO as r_a r_b.
    The plane has no E(u, v): its reflections are those of its non-singular
    points, and Omega (and SO at odd q) takes the products r_0 r_x."""
    F, d, q = form.field, spec.d, spec.q
    omega = spec.family.startswith("Omega")
    if omega and q % 2 == 1:
        raise GroupError("Omega for odd q (spinor-norm kernel) is not constructed")
    U, V = _basis_root_pairs(form)
    M = _root_elements(form, U, V, F.neg(linalg.eval_quadratic_batch(form, V)))
    if d == 2:
        # one non-singular vector per point: its first nonzero coordinate is 1
        X = linalg.all_row_vectors(F, d)
        lead = X[np.arange(len(X)), (X != 0).argmax(axis=1)]
        X = X[(lead == 1) & (linalg.eval_quadratic_batch(form, X) != 0)]
    else:
        # a = e_0 + e_h and b = e_0 + nu e_h, for e_0's hyperbolic partner e_h
        I, h = linalg.identity(F, d), np.flatnonzero(form.polar_gram()[0])[0]
        X = F.add(I[0], F.mul(np.array([1, F.generator_code][: 1 + q % 2])[:, None], I[h]))
    R = _root_elements(form, X, 0 * X, F.div(F.neg(1), linalg.eval_quadratic_batch(form, X)))
    if omega or (q % 2 == 1 and spec.family.startswith("SO")):
        R = mat_mul(F, R[0], R[1:])       # products r_0 r_x of two reflections
    return np.concatenate([M, R])


@functools.lru_cache(maxsize=None)
def classical_generators(spec):
    """The socle generators of the spec's matrix group as one read-only
    int64 stack (m, d, d), with no identity among them, together with the
    preserved standard form.  The outer elements of spec.extensions are
    not in the stack: outer_element gives each.

    Every generator is checked to preserve the form exactly
    (_preserving).
    """
    form = _standard_form(spec)
    if form is None:
        M = _linear_generators(spec)
    else:
        M = {"symplectic": _symplectic_generators, "hermitian": _unitary_generators,
             "quadratic": _orthogonal_generators}[form.kind](spec, form)
    M = M[~(M == linalg.identity(spec.matrix_field(), spec.d)).all(axis=(1, 2))]
    if form is not None and not _preserving(form, M, 0).all():
        raise GroupError(f"{spec.family} generator fails the form check")
    M.setflags(write=False)
    return M, form


def outer_element(kind, spec):
    """An outer element normalizing the socle action, as a (matrix, Frobenius
    power, duality) triple: 'diag', 'dual', or 'frob' / 'frob:k'."""
    F = spec.matrix_field()
    d = spec.d
    if kind == "dual":
        if FAMILIES[spec.family] is not None:
            raise GroupError("duality is a linear-family automorphism")
        return linalg.identity(F, d), 0, True
    if kind.startswith("frob"):
        k = (int(kind.split(":", 1)[1]) if ":" in kind else 1) % F.f
        return _frobenius_companion(spec, k), k, False
    if kind == "diag":
        M = linalg.identity(F, d)
        if FAMILIES[spec.family] is None:
            M[0, 0] = F.generator_code
        elif spec.family == "Sp":
            for i in range(d // 2):
                M[i, i] = F.generator_code
        else:
            raise GroupError(f"diag outer element unsupported for {spec.family}")
        return M, 0, False
    raise GroupError(f"unknown outer element kind {kind!r}")


def _frobenius_companion(spec, k):
    """The matrix A of the outer element frob^k . A of the spec.

    A = I where frob^k fixes the standard form.  Only an elliptic
    quadratic form over a non-prime field can be moved, through its mu;
    then A is the first matrix, the identity off the (x_m, x_d) plane,
    that carries the twisted form back (_preserving) and for which
    (frob^k . A)^n, with n the order of frob^k, lies in the matrix group
    (in_matrix_group).  The plane's entries (a00, a01, a10, a11) count up
    in base q, a00 first, tried q^2 at a time, at most FROB_CANDIDATES.
    Raises when none passes."""
    F = spec.matrix_field()
    d, m, q = spec.d, spec.d // 2, F.q
    form = _standard_form(spec)
    A = linalg.identity(F, d)
    if form is None or _preserving(form, A[None], k)[0]:
        return A
    n = F.f // math.gcd(F.f, k)
    A = np.tile(A, (q * q, 1, 1))
    A[:, m - 1, [m - 1, d - 1]] = linalg.all_row_vectors(F, 2)    # (a00, a01)
    for b in range(min(q * q, -(-FROB_CANDIDATES // (q * q)))):
        A[:, d - 1, [m - 1, d - 1]] = b % q, b // q                 # (a10, a11)
        B = A[_preserving(form, A, k)]
        P = B             # the matrix of (frob^k . B)^j, for j = 1, ..., n
        for j in range(1, n):
            P = mat_mul(F, F.frob(B, j * k), P)
        ok = np.flatnonzero(in_matrix_group(spec, form, P))
        if len(ok):
            return B[ok[0]]
    raise GroupError(f"no outer element frob:{k} of {spec.family}({d},{spec.q}): no A of the "
                     f"{min(q**4, FROB_CANDIDATES)} tried on the (x_m, x_d) plane preserves "
                     f"the form with (frob^{k} . A)^{n} in the group")


# -- order formulas and certification ------------------------------------------

def matrix_group_order(spec):
    """Textbook order of the matrix group (the certification oracle)."""
    d, q = spec.d, spec.q
    fam = spec.family
    if fam == "GL":
        n = 1
        for i in range(d):
            n *= q**d - q**i
        return n
    if fam == "SL":
        return matrix_group_order(GroupSpec("GL", d, q)) // (q - 1)
    if fam == "Sp":
        m = d // 2
        n = q**(m * m)
        for i in range(1, m + 1):
            n *= q**(2 * i) - 1
        return n
    if fam == "GU":
        n = q**(d * (d - 1) // 2)
        for i in range(1, d + 1):
            n *= q**i - (-1)**i
        return n
    if fam == "SU":
        return matrix_group_order(GroupSpec("GU", d, q)) // (q + 1)
    m = d // 2
    eps = 1 if FAMILIES[fam] is quadratic_plus else -1
    n = q**(m * (m - 1)) * (q**m - eps)
    for i in range(1, m):
        n *= q**(2 * i) - 1
    # |O| = 2n; SO has index 2 in O at odd q (O = SO in characteristic 2),
    # and Omega has index 2 in SO
    return 2 * n // {"GO": 1, "SO": 1 + q % 2, "Om": 2 + 2 * (q % 2)}[fam[:2]]
