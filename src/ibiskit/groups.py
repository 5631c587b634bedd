"""Generator sets for the classical matrix groups over small finite
fields, together with the outer elements (diagonal, field, duality) used
to extend them.

Construction strategy: Chevalley-style root elements (transvections and
their short-root companions) relative to the standard forms of linalg,
with the socle generators checked against the form on construction, all
in one stacked product.
`matrix_group_order` gives the textbook order of each matrix group and
`in_matrix_group` tests membership in it; the actions module builds its
proven bound on the order of an induced group from the two.
`certified_order` compares the order of the induced permutation group
on nonzero vectors with the formula; only the tests call it.
Orthogonal groups in characteristic 2 are generated directly as
products of pairs of reflections (Dickson kernel), which avoids
spinor-norm membership tests entirely; the reflections and their
products are built as one stack.

Projective groups are never formed as abstract quotients: scalars act
trivially on every subspace domain, so inducing the matrix group on the
domain realizes the projective action.  A stack of elements acts on a
whole stack of subspace bases at once (`act_subspaces`): one batched
product and RREF, and for duality elements one batched annihilator.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from . import gf, linalg
from .linalg import (
    annihilator, hermitian_form, inverse, mat_mul, quadratic_minus,
    quadratic_plus, rank_stack, rref_stack, symplectic_form,
)
from .perm import PermGroup


class GroupError(ValueError):
    pass


FAMILIES = ("GL", "SL", "Sp", "GU", "SU", "GOplus", "GOminus",
            "SOplus", "SOminus", "OmegaPlus", "OmegaMinus")


@dataclass(frozen=True)
class GroupSpec:
    family: str
    d: int
    q: int
    extensions: tuple = ()
    derived: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GroupError(f"unknown family {self.family!r}")
        if self.family in ("Sp", "GOplus", "GOminus", "SOplus", "SOminus",
                           "OmegaPlus", "OmegaMinus") and self.d % 2:
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
        return self.family in ("GU", "SU")

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
        for key in ("family", "d", "q"):
            if key not in data:
                raise GroupError(f"group descriptor is missing {key!r}")
        for key in ("d", "q"):
            if not isinstance(data[key], int):
                raise GroupError(f"group descriptor needs an integer {key!r}")
        return cls(data["family"], data["d"], data["q"],
                   data.get("extensions", ()), data.get("derived", False))


class SemilinearElement:
    """matrix * frobenius^k, optionally followed by the duality polarity.

    Vectors act on the right: v -> frob(v, k) . M.  The duality flag is
    only meaningful on subspace domains, where it applies the standard
    annihilator after the semilinear part.
    """

    __slots__ = ("field", "matrix", "frob_power", "dual", "_key")

    def __init__(self, field, matrix, frob_power=0, dual=False, _trusted=False):
        matrix = np.asarray(matrix, dtype=np.int64)
        if not _trusted:
            inverse(field, matrix)  # raises if singular
        self.field = field
        self.matrix = matrix
        self.frob_power = frob_power % field.f
        self.dual = bool(dual)
        self._key = (matrix.tobytes(), self.frob_power, self.dual)

    @property
    def d(self):
        return self.matrix.shape[0]

    def is_identity(self):
        return (self.frob_power == 0 and not self.dual
                and np.array_equal(self.matrix, linalg.identity(self.field, self.d)))

    def __mul__(self, other):
        if self.field != other.field:
            raise GroupError("fields differ")
        F = self.field
        right = other.matrix if not self.dual else inverse(F, other.matrix).T
        m3 = mat_mul(F, F.frob(self.matrix, other.frob_power), right)
        return SemilinearElement(F, m3, self.frob_power + other.frob_power,
                                 self.dual ^ other.dual, _trusted=True)

    def inverse_element(self):
        F = self.field
        m = F.frob(self.matrix, -self.frob_power % F.f)
        if not self.dual:
            return SemilinearElement(F, inverse(F, m), -self.frob_power, False,
                                     _trusted=True)
        return SemilinearElement(F, m.T, -self.frob_power, True, _trusted=True)

    def act_vectors(self, V):
        """Image of a batch of row vectors; undefined for duality elements."""
        if self.dual:
            raise GroupError("duality elements act on subspaces, not vectors")
        return mat_mul(self.field, self.field.frob(np.asarray(V), self.frob_power),
                       self.matrix)

    def __eq__(self, other):
        return isinstance(other, SemilinearElement) and self._key == other._key \
            and self.field == other.field


def act_subspaces(F, M, frob_power, dual, B):
    """RREF bases (m, n, k', d) of the images of the row spaces of a stack
    B (n, k, d) of rank-k bases under each element frob^k . M[j] of a
    stack M (m, d, d); under duality elements, of the annihilators of
    those images.  One batched product, RREF and annihilator."""
    P = mat_mul(F, F.frob(B, frob_power), M[:, None])
    R = rref_stack(F, P.reshape(len(M) * len(B), *B.shape[1:]))
    if dual:
        R = annihilator(F, R)
    return R.reshape(len(M), len(B), *R.shape[1:])


# -- form preservation checks ---------------------------------------------

def preserves_form(g, form):
    """Whether g = frob^k . M carries the form to itself: _preserving."""
    return form is None or g.dual or bool(_preserving(form, g.matrix[None],
                                                       g.frob_power)[0])


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
    """t_a: u -> u + phi(u, a) a, an involution preserving a symplectic
    form in characteristic 2."""
    F = form.field
    if F.p != 2:
        raise GroupError("symplectic transvections here require characteristic 2")
    if not np.any(a):
        raise GroupError("transvection direction must be nonzero")
    return _symplectic_transvection_general(F, form, a, 1)


def _symplectic_transvection_general(F, form, a, lam):
    a = np.asarray(a, dtype=np.int64)
    coeffs = F.mul(mat_mul(F, form.gram, a[:, None])[:, 0], lam)
    M = F.add(linalg.identity(F, form.dim), F.mul(coeffs[:, None], a[None, :]))
    return SemilinearElement(F, M, _trusted=True)


def orthogonal_reflection(form, a):
    """r_a: u -> u - (B(u,a)/Q(a)) a for a non-singular vector a; works in
    every characteristic (B is the polarization)."""
    a = np.asarray(a, dtype=np.int64)
    if linalg.eval_form(form, a) == 0:
        raise GroupError("reflection vector must be non-singular")
    return SemilinearElement(form.field, _reflections(form, a[None])[0], _trusted=True)


def _reflections(form, A):
    """The matrices (n, d, d) of the reflections r_a for the rows a of A,
    all non-singular."""
    F = form.field
    coeffs = F.div(mat_mul(F, A, form.polar_gram().T),
                   linalg.eval_quadratic_batch(form, A)[:, None])
    return F.sub(linalg.identity(F, form.dim), F.mul(coeffs[:, :, None], A[:, None, :]))


def _field_spanning_scalars(F):
    """Scalars whose F_p-span is all of F: powers of the generator."""
    return [int(F.power(np.asarray(F.generator_code), k)) for k in range(F.f)]


def _elementary(F, d, entries):
    """The element whose matrix is the identity with the given entries."""
    M = linalg.identity(F, d)
    for (r, c), v in entries.items():
        M[r, c] = v
    return SemilinearElement(F, M, _trusted=True)


def _linear_generators(spec):
    F = gf.field_of_order(spec.q)
    d = spec.d
    gens = [_elementary(F, d, {(i, j): lam})
            for i, j in itertools.permutations(range(d), 2)
            for lam in _field_spanning_scalars(F)]
    if spec.family == "GL" and spec.q > 2:
        gens.append(_elementary(F, d, {(0, 0): F.generator_code}))
    return gens, None


def _symplectic_generators(spec):
    F = gf.field_of_order(spec.q)
    d = spec.d
    m = d // 2
    form = symplectic_form(F, d)
    scalars = _field_spanning_scalars(F)
    e = linalg.identity(F, d)
    gens = [_symplectic_transvection_general(F, form, e[k], lam)
            for i in range(m) for lam in scalars for k in (i, m + i)]
    # e_i -> e_i + t e_j and f_j -> f_j - t f_i
    gens += [_elementary(F, d, {(i, j): t, (m + j, m + i): int(F.neg(t))})
             for i, j in itertools.permutations(range(m), 2) for t in scalars]
    gens += [_elementary(F, d, entries)
             for i, j in itertools.combinations(range(m), 2) for t in scalars
             for entries in ({(i, m + j): t, (j, m + i): t},
                             {(m + i, j): t, (m + j, i): t})]
    return gens, form


def _unitary_generators(spec):
    if spec.d not in (3, 4):
        raise GroupError("unitary constructions are provided for d in {3, 4}")
    F0 = gf.field_of_order(spec.q)
    E = spec.matrix_field()
    q, d = spec.q, spec.d
    form = hermitian_form(E, d, conj_power=F0.f)
    conj = lambda x: int(E.frob(x, F0.f))
    mu = E.generator_code
    inv = lambda x: int(E.inv(np.asarray(x)))

    def solve_trace(rhs):
        """Least t in GF(q^2) with t + t^q = rhs."""
        for t in range(E.q):
            if int(E.add(t, E.frob(t, F0.f))) == rhs:
                return t
        raise GroupError("trace equation unsolvable")  # unreachable

    span_E = [int(E.power(np.asarray(mu), k)) for k in range(2 * F0.f)]
    if d == 3:
        # upper unipotents [[1, s, t], [0, 1, -s^q], [0, 0, 1]],
        # constrained by t + t^q + s^{q+1} = 0
        params = [(0, t) for t in span_E if int(E.add(t, E.frob(t, F0.f))) == 0 and t]
        params += [(s, solve_trace(int(E.neg(E.mul(s, E.frob(s, F0.f)))))) for s in span_E]
        gens = [_elementary(E, 3, {(0, 1): s, (0, 2): t, (1, 2): int(E.neg(conj(s)))})
                for s, t in params]
        gens += [_elementary(E, 3, {(0, 0): mu, (1, 1): int(E.power(np.asarray(mu), q - 1)),
                                    (2, 2): inv(E.power(np.asarray(mu), q))}),
                 _elementary(E, 3, {(0, 0): 0, (2, 2): 0, (0, 2): 1, (2, 0): 1,
                                    (1, 1): int(E.neg(1))})]
    else:
        # hyperbolic pairs (e1, e4), (e2, e3) for the anti-diagonal form:
        # e3 -> e3 - t^q e4, and e2 -> e2 - t^q e4
        gens = [_elementary(E, 4, entries) for t in span_E
                for entries in ({(0, 1): t, (2, 3): int(E.neg(conj(t)))},
                                {(0, 2): t, (1, 3): int(E.neg(conj(t)))})]
        trace_zero = [t for t in range(E.q)
                      if t and int(E.add(t, E.frob(t, F0.f))) == 0]
        gens += [_elementary(E, 4, {ij: t}) for t in trace_zero[: 2 * F0.f]
                 for ij in ((0, 3), (1, 2))]
        a0 = _embed_scalar(E, F0, F0.generator_code)
        gens += [_elementary(E, 4, {(0, 0): a0, (3, 3): inv(a0)}),
                 _elementary(E, 4, {(1, 1): a0, (2, 2): inv(a0)})]
        # double transpositions: determinant 1 in every characteristic
        gens += [_elementary(E, 4, {(a, a): 0, (b, b): 0, (c, c): 0, (e, e): 0,
                                    (a, b): 1, (b, a): 1, (c, e): 1, (e, c): 1})
                 for (a, b), (c, e) in (((0, 1), (3, 2)), ((0, 3), (1, 2)))]
    if spec.family == "GU":
        gens.append(_elementary(E, d, {(0, 0): mu, (d - 1, d - 1): inv(E.frob(mu, F0.f))}))
    gens = [g for g in gens if not g.is_identity()]
    if spec.family == "SU" and np.any(linalg.det(E, np.array([g.matrix for g in gens])) != 1):
        raise GroupError("SU generator with nontrivial determinant")
    return gens, form


def _embed_scalar(E, F0, code):
    """Carry a GF(q) scalar into GF(q^2) through the cached embedding."""
    emb = E.from_subfield_root(F0)
    return int(emb[code])


def _orthogonal_generators(spec):
    F = gf.field_of_order(spec.q)
    d, q = spec.d, spec.q
    is_plus = "plus" in spec.family.lower()
    form = quadratic_plus(F, d) if is_plus else quadratic_minus(F, d)
    if spec.family.startswith("Omega") and q % 2 == 1:
        raise GroupError("Omega for odd q (spinor-norm kernel) is not constructed")
    # one non-singular vector per point: its first nonzero coordinate is 1
    vectors = linalg.all_row_vectors(F, d)
    lead = vectors[np.arange(len(vectors)), (vectors != 0).argmax(axis=1)]
    nonsingular = vectors[(lead == 1) & (linalg.eval_quadratic_batch(form, vectors) != 0)]
    M = _reflections(form, nonsingular)
    if spec.family.startswith("Omega") or (q % 2 == 1 and spec.family.startswith("SO")):
        M = mat_mul(F, M[0], M[1:])       # products r_0 r_a of two reflections
    if is_plus and (d, q) == (4, 2):
        # the known exception: these generate a subgroup of index 2; the
        # coordinate reversal preserves Q, has Dickson invariant 0, and completes it
        M = np.concatenate([M, linalg.identity(F, d)[None, ::-1]])
    M = M[~(M == linalg.identity(F, d)).all(axis=(1, 2))]
    return [SemilinearElement(F, m, _trusted=True) for m in M], form


@functools.lru_cache(maxsize=None)
def classical_generators(spec):
    """Generating set for the matrix group described by the GroupSpec,
    with any requested outer elements appended, together with the
    preserved standard form.

    Each socle generator is checked to preserve the form exactly
    (preserves_form); the appended outer elements are not checked, and
    may move the form by a similitude scalar or a Frobenius twist.  The
    order of the generated group is not checked here: certified_order
    compares it with the textbook formula, and only the tests call it.
    """
    if spec.family in ("GL", "SL"):
        gens, form = _linear_generators(spec)
    elif spec.family == "Sp":
        gens, form = _symplectic_generators(spec)
    elif spec.family in ("GU", "SU"):
        gens, form = _unitary_generators(spec)
    else:
        gens, form = _orthogonal_generators(spec)
    M = np.array([g.matrix for g in gens])
    if form is not None and gens and not _preserving(form, M, 0).all():
        raise GroupError(f"{spec.family} generator fails the form check")
    for ext in spec.extensions:
        gens = gens + [outer_element(ext, spec)]
    return gens, form


def outer_element(kind, spec):
    """An outer element normalizing the socle action: 'diag', 'dual', or
    'frob' / 'frob:k'."""
    F = spec.matrix_field()
    d = spec.d
    if kind == "dual":
        if spec.family not in ("GL", "SL"):
            raise GroupError("duality is a linear-family automorphism")
        return SemilinearElement(F, linalg.identity(F, d), 0, dual=True,
                                 _trusted=True)
    if kind.startswith("frob"):
        k = int(kind.split(":", 1)[1]) if ":" in kind else 1
        return SemilinearElement(F, linalg.identity(F, d), k, _trusted=True)
    if kind == "diag":
        M = linalg.identity(F, d)
        if spec.family in ("GL", "SL"):
            M[0, 0] = F.generator_code
        elif spec.family == "Sp":
            for i in range(d // 2):
                M[i, i] = F.generator_code
        else:
            raise GroupError(f"diag outer element unsupported for {spec.family}")
        return SemilinearElement(F, M, _trusted=True)
    raise GroupError(f"unknown outer element kind {kind!r}")


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
    eps = 1 if "plus" in fam.lower() else -1
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
    gens, form = classical_generators(spec)
    F = spec.matrix_field()
    d = spec.d
    vecs = linalg.all_row_vectors(F, d)[1:]     # drop the zero vector
    radix = F.q ** np.arange(d, dtype=np.int64)
    index = np.full(F.q**d, -1, dtype=np.int64)
    index[vecs @ radix] = np.arange(len(vecs))
    if any(g.dual for g in gens):
        raise GroupError("duality elements have no vector action")
    imgs = index[np.stack([g.act_vectors(vecs) for g in gens]) @ radix]
    return PermGroup(len(vecs), imgs)


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

