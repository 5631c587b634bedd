"""Generator stacks for the classical matrix groups over small finite
fields, together with the outer elements (diagonal, field, duality) used
to extend them.

A class of elements is a matrix stack M (m, d, d) with one Frobenius
power k and one duality flag: each M[j] acts on row vectors as
v -> frob(v, k) . M[j], and under duality then maps a subspace to its
standard annihilator.  `classical_generators` gives the socle generators
as one stack with k = 0 and no duality, and `outer_element` gives each
outer element as one (matrix, k, dual) triple.

Construction strategy: Chevalley-style root elements (transvections and
their short-root companions) relative to the standard forms of linalg,
built as stacks and checked against the form in one stacked product.
`matrix_group_order` gives the textbook order of each matrix group and
`in_matrix_group` tests membership in it; the actions module builds its
proven bound on the order of an induced group from the two.
`certified_order` compares the order of the induced permutation group
on nonzero vectors with the formula; only the tests call it.
Orthogonal groups are generated by reflections, and Omega (and SO in
odd characteristic) by products of pairs of them (in characteristic 2
the Dickson kernel), which avoids spinor-norm membership tests entirely.

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
from .perm import PermGroup


class GroupError(ValueError):
    pass


# Every family a spec may name -> the constructor (field, d) of the
# standard form its matrix group preserves, None for GL and SL.
FAMILIES = {"GL": None, "SL": None, "Sp": symplectic_form,
            "GU": hermitian_form, "SU": hermitian_form,
            "GOplus": quadratic_plus, "GOminus": quadratic_minus,
            "SOplus": quadratic_plus, "SOminus": quadratic_minus,
            "OmegaPlus": quadratic_plus, "OmegaMinus": quadratic_minus}


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

def transvection_symplectic(a, form):
    """The matrix of t_a: u -> u + phi(u, a) a, an involution preserving a
    symplectic form in characteristic 2."""
    F = form.field
    if F.p != 2:
        raise GroupError("symplectic transvections here require characteristic 2")
    if not np.any(a):
        raise GroupError("transvection direction must be nonzero")
    a = np.asarray(a, dtype=np.int64)
    coeffs = mat_mul(F, form.gram, a[:, None])[:, 0]
    return F.add(linalg.identity(F, form.dim), F.mul(coeffs[:, None], a[None, :]))


def _reflections(form, A):
    """The matrices (n, d, d) of the reflections r_a for the rows a of A,
    all non-singular."""
    F = form.field
    coeffs = F.div(mat_mul(F, A, form.polar_gram().T),
                   linalg.eval_quadratic_batch(form, A)[:, None])
    return F.sub(linalg.identity(F, form.dim), F.mul(coeffs[:, :, None], A[:, None, :]))


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


def _unitary_generators(spec, form):
    if spec.d not in (3, 4):
        raise GroupError("unitary constructions are provided for d in {3, 4}")
    F0 = gf.field_of_order(spec.q)
    E = form.field
    q, d = spec.q, spec.d
    mu = E.generator_code
    codes = np.arange(E.q)
    trace = E.add(codes, E.frob(codes, F0.f))     # t + t^q, GF(q^2) -> GF(q)
    span = _field_spanning_scalars(E)
    bar = E.neg(E.frob(span, F0.f))               # -t^q for t in span
    if d == 3:
        # upper unipotents [[1, s, t], [0, 1, -s^q], [0, 0, 1]],
        # constrained by t + t^q + s^{q+1} = 0: s = 0 with each t of span
        # of trace 0, and each s of span with the least t
        least = (trace == E.mul(span, bar)[:, None]).argmax(axis=1)
        entries = [{(0, 2): t} for t in span[trace[span] == 0]]
        entries += [{(0, 1): s, (0, 2): t, (1, 2): b} for s, t, b in zip(span, least, bar)]
        entries += [{(0, 0): mu, (1, 1): E.power(mu, q - 1), (2, 2): E.power(mu, -q)},
                    {(0, 0): 0, (2, 2): 0, (0, 2): 1, (2, 0): 1, (1, 1): E.neg(1)}]
    else:
        # hyperbolic pairs (e1, e4), (e2, e3) for the anti-diagonal form:
        # e3 -> e3 - t^q e4, and e2 -> e2 - t^q e4
        entries = [cells for t, b in zip(span, bar)
                   for cells in ({(0, 1): t, (2, 3): b}, {(0, 2): t, (1, 3): b})]
        entries += [{ij: t} for t in np.flatnonzero(trace == 0)[1: 2 * F0.f + 1]
                    for ij in ((0, 3), (1, 2))]
        a0 = E.power(mu, q + 1)                   # a generator of GF(q)*
        entries += [{(0, 0): a0, (3, 3): E.inv(a0)}, {(1, 1): a0, (2, 2): E.inv(a0)}]
        # double transpositions: determinant 1 in every characteristic
        entries += [{(a, a): 0, (b, b): 0, (c, c): 0, (e, e): 0,
                     (a, b): 1, (b, a): 1, (c, e): 1, (e, c): 1}
                    for (a, b), (c, e) in (((0, 1), (3, 2)), ((0, 3), (1, 2)))]
    if spec.family == "GU":
        entries.append({(0, 0): mu, (d - 1, d - 1): E.inv(E.frob(mu, F0.f))})
    M = _elementary(E, d, entries)
    if spec.family == "SU" and np.any(linalg.det(E, M) != 1):
        raise GroupError("SU generator with nontrivial determinant")
    return M


def _orthogonal_generators(spec, form):
    F = form.field
    d, q = spec.d, spec.q
    if spec.family.startswith("Omega") and q % 2 == 1:
        raise GroupError("Omega for odd q (spinor-norm kernel) is not constructed")
    # one non-singular vector per point: its first nonzero coordinate is 1
    vectors = linalg.all_row_vectors(F, d)
    lead = vectors[np.arange(len(vectors)), (vectors != 0).argmax(axis=1)]
    nonsingular = vectors[(lead == 1) & (linalg.eval_quadratic_batch(form, vectors) != 0)]
    M = _reflections(form, nonsingular)
    if spec.family.startswith("Omega") or (q % 2 == 1 and spec.family.startswith("SO")):
        M = mat_mul(F, M[0], M[1:])       # products r_0 r_a of two reflections
    if FAMILIES[spec.family] is quadratic_plus and (d, q) == (4, 2):
        # the known exception: these generate a subgroup of index 2; the
        # coordinate reversal preserves Q, has Dickson invariant 0, and completes it
        M = np.concatenate([M, linalg.identity(F, d)[None, ::-1]])
    return M


@functools.lru_cache(maxsize=None)
def classical_generators(spec):
    """The socle generators of the spec's matrix group as one read-only
    int64 stack (m, d, d), with no identity among them, together with the
    preserved standard form.  The outer elements of spec.extensions are
    not in the stack: outer_element gives each.

    Every generator is checked to preserve the form exactly
    (_preserving).  The order of the generated group is not checked here:
    certified_order compares it with the textbook formula, and only the
    tests call it.
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
    (in_matrix_group).  Raises when no such A exists.
    """
    F = spec.matrix_field()
    d, m = spec.d, spec.d // 2
    form = _standard_form(spec)
    A = linalg.identity(F, d)[None]
    if form is None or _preserving(form, A, k)[0]:
        return A[0]
    A = np.tile(A, (F.q**4, 1, 1))
    plane = [[m - 1], [d - 1]], [m - 1, d - 1]
    A[(slice(None),) + plane] = linalg.all_row_vectors(F, 4).reshape(-1, 2, 2)
    A = A[_preserving(form, A, k)]
    n = F.f // math.gcd(F.f, k)
    P = A                 # the matrix of (frob^k . A)^j, for j = 1, ..., n
    for j in range(1, n):
        P = mat_mul(F, F.frob(A, j * k), P)
    ok = np.flatnonzero(in_matrix_group(spec, form, P))
    if not len(ok):
        raise GroupError(f"no outer element frob:{k} of {spec.family}({d},{spec.q}): "
                         f"no A on the (x_m, x_d) plane preserves the form with "
                         f"(frob^{k} . A)^{n} in the group")
    return A[ok[0]]


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
    omega = q**(m * (m - 1)) * (q**m - eps)
    for i in range(1, m):
        omega *= q**(2 * i) - 1
    if fam.startswith("Omega"):
        return omega
    if q % 2 == 0:
        return 2 * omega          # O = SO in characteristic 2
    if fam.startswith("SO"):
        return omega
    return 2 * omega


def induced_on_nonzero_vectors(spec):
    """The permutation group induced on the nonzero vectors of the natural
    module (a faithful action of the matrix-plus-Frobenius group)."""
    socle, _ = classical_generators(spec)
    outer = [outer_element(ext, spec) for ext in spec.extensions]
    if any(dual for _, _, dual in outer):
        raise GroupError("duality elements have no vector action")
    F = spec.matrix_field()
    d = spec.d
    vecs = linalg.all_row_vectors(F, d)[1:]     # drop the zero vector
    radix = F.q ** np.arange(d, dtype=np.int64)
    index = np.full(F.q**d, -1, dtype=np.int64)
    index[vecs @ radix] = np.arange(len(vecs))
    imgs = np.concatenate([mat_mul(F, vecs, socle)]
                          + [mat_mul(F, F.frob(vecs, k), M[None]) for M, k, _ in outer])
    return PermGroup(len(vecs), index[imgs @ radix])


@functools.lru_cache(maxsize=None)
def certified_order(spec):
    """BSGS order of the induced vector action, checked against the
    textbook formula; raises on mismatch."""
    if spec.extensions or spec.derived:
        raise GroupError("certify the plain socle spec")
    G = induced_on_nonzero_vectors(spec)
    n = G.order()
    expect = matrix_group_order(spec)
    if n != expect:
        raise GroupError(
            f"{spec.family}({spec.d},{spec.q}) order {n} != formula {expect}")
    return n

