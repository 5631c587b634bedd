"""Test-side oracles: constructions the tests check ibiskit against and
that no command of the program runs.  Each raises the package's own
exception (GroupError, GFError, LinalgError) where it refuses its input.

- `certified_order` and `induced_on_nonzero_vectors`: the order of a
  spec's socle on the nonzero vectors of its natural module, checked
  against the textbook formula, independent of build_group_action;
- `find_special_alpha`: the full-orbit trace-equation element of PSU3;
- `eval_form` and `theta_value`: one form value, and theta_a(u) on the
  quadratic-forms domain;
- `pfaffian4`, `PFAFFIAN_COORDS`, `pfaffian_quadric_form` and
  `klein_map`: the 4 x 4 Pfaffian and the Klein map from lines of
  PG(3, q) to points of the Pfaffian quadric;
- `fresh_stabilizer`: a pointwise stabilizer read off a chain built
  afresh at the whole point sequence, not by one-point steps.
"""

import functools
import math

import numpy as np

from ibiskit import groups, linalg
from ibiskit.gf import GFError, field_of_order, make_field
from ibiskit.groups import GroupError
from ibiskit.linalg import FormSpec, LinalgError, mat_mul, rref_stack
from ibiskit.perm import PermGroup


# -- group orders --------------------------------------------------------------

def induced_on_nonzero_vectors(spec):
    """The permutation group induced on the nonzero vectors of the natural
    module (a faithful action of the matrix-plus-Frobenius group)."""
    socle, _ = groups.classical_generators(spec)
    outer = [groups.outer_element(ext, spec) for ext in spec.extensions]
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
    textbook formula; raises on mismatch.  The formula is the chain's
    target when every generator lies in the matrix group it orders."""
    if spec.extensions or spec.derived:
        raise GroupError("certify the plain socle spec")
    # both read groups.classical_generators at call time, so a test that
    # replaces it reaches the vector action and the target alike
    G = induced_on_nonzero_vectors(spec)
    socle, form = groups.classical_generators(spec)
    expect = groups.matrix_group_order(spec)
    if groups.in_matrix_group(spec, form, socle).all():
        G._order_bound = expect
    n = G.order()
    if n != expect:
        raise GroupError(
            f"{spec.family}({spec.d},{spec.q}) order {n} != formula {expect}")
    return n


def fresh_stabilizer(G, points):
    """The pointwise stabilizer of the points as the group of the strong
    generators below the prefix of a chain of G built afresh at it, with
    its suffix order, and that chain's suffix orders along the prefix."""
    k = len(points)
    ch = G.chain(base_prefix=points)
    sizes = [len(lvl.points) for lvl in ch.levels]
    orders = [math.prod(sizes[i:]) for i in range(k + 1)]
    H = PermGroup(G.degree, [g for lvl in ch.levels[k:] for g in lvl.gens])
    H._order = orders[-1]
    return H, orders


# -- fields and forms ----------------------------------------------------------

def find_special_alpha(q):
    """An alpha in GF(q^2) with alpha + alpha^q + 1 = 0 whose Galois orbit
    under Aut(GF(q^2)) has full size 2f, q = p^f.

    The solution set of the trace equation has exactly q elements; a full
    orbit always exists among them.  Returns the least such alpha's code.
    """
    F = field_of_order(q)
    E = make_field(F.p, 2 * F.f)
    codes = np.arange(E.q)
    sols = np.flatnonzero(E.add(E.add(codes, E.frob(codes, F.f)), 1) == 0)
    assert len(sols) == q, "trace-equation solution count must be q"
    # a full orbit: no Frobenius power below 2f fixes the code
    full = np.all([E.frob(sols, k) != sols for k in range(1, 2 * F.f)], axis=0)
    if not full.any():
        raise GFError(f"no full-orbit solution for q={q}")  # not reachable per theory
    return int(sols[full][0])


def eval_form(form, u, v=None):
    """Evaluate the form: one argument for quadratic, two otherwise."""
    u = np.asarray(u, dtype=np.int64)
    if form.kind == "quadratic":
        if v is not None:
            raise LinalgError("quadratic form takes a single argument")
        if u.shape != (form.dim,):
            raise LinalgError("dimension mismatch")
        return int(linalg.eval_quadratic_batch(form, u[None])[0])
    if v is None:
        raise LinalgError(f"{form.kind} form takes two arguments")
    v = np.asarray(v, dtype=np.int64)
    if u.shape != (form.dim,) or v.shape != (form.dim,):
        raise LinalgError("dimension mismatch")
    return int(linalg.eval_bilinear_batch(form, u[None], v[None])[0])


def theta_value(dom, a, u):
    """theta_a(u) = theta_0(u) + phi(u, a)^2 for a parameter vector a."""
    theta0 = dom.form
    F = theta0.field
    u = np.asarray(u, dtype=np.int64)
    cross = linalg.eval_bilinear_batch(theta0, u, np.asarray(a, dtype=np.int64))
    return int(F.add(eval_form(theta0, u), F.mul(cross, cross)))


# -- Pfaffian and the Klein map ------------------------------------------------

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
