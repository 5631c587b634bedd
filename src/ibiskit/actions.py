"""Indexed point domains for the classical-group actions, and induction
of permutations from semilinear elements.

Every domain holds canonical point objects (RREF subspaces, ordered
pairs of subspaces, or quadratic-form parameter vectors), sorted by
their canonical byte keys so indices are deterministic; point labels are
still representation-dependent and never asserted across builds with a
different field or form convention.  Construction re-checks the defining
predicate of every candidate: the candidates of a subspace domain are one
stack of RREF bases, the predicate is a mask over the whole stack, and
only the rows that pass become point objects.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import gf, linalg
from .gf import trace_bit
from .groups import GroupSpec, classical_generators
from .linalg import (
    Subspace, eval_form, is_nondegenerate, is_totally_singular,
    quadratic_theta0, subspace_meet, subspace_sum, symplectic_form,
)
from .perm import PermGroup, Permutation, derived_subgroup

SIZE_CAP = 10**6


class ActionError(ValueError):
    pass


class QuadFormPoint:
    """theta_a, identified with its parameter vector a (the set of forms
    polarising to phi is in bijection with V)."""

    __slots__ = ("a", "_key")

    def __init__(self, a):
        arr = np.asarray(a, dtype=np.int64)
        arr.setflags(write=False)
        self.a = arr
        self._key = ("theta", arr.tobytes())

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, QuadFormPoint) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"theta_{list(map(int, self.a))}"


def _point_key(pt):
    if isinstance(pt, Subspace):
        return ("sub",) + pt.key()
    if isinstance(pt, tuple):
        return ("pair",) + tuple(_point_key(c) for c in pt)
    return pt.key()


class ActionDomain:
    """An indexed point set: kind, canonical points, exact index lookup."""

    def __init__(self, kind, points, field, params=None, form=None):
        if len(points) > SIZE_CAP:
            raise ActionError(f"domain size {len(points)} exceeds cap")
        pts = sorted(points, key=_point_key)
        self.kind = kind
        self.points = pts
        self.field = field
        self.params = dict(params or {})
        self.form = form
        self.index = {_point_key(p): i for i, p in enumerate(pts)}
        if len(self.index) != len(pts):
            raise ActionError("domain points are not pairwise distinct")

    @property
    def N(self):
        return len(self.points)

    def index_of(self, pt):
        try:
            return self.index[_point_key(pt)]
        except KeyError:
            raise ActionError("point is not in the domain (domain not invariant?)")

    def describe(self):
        out = {"kind": self.kind, "N": self.N}
        out.update({k: v for k, v in self.params.items()})
        return out

    def __repr__(self):
        return f"ActionDomain({self.kind}, N={self.N})"


# -- subspace enumeration -----------------------------------------------------

def enumerate_subspaces(F, d, k):
    """All k-dimensional subspaces of GF(q)^d as one (n, k, d) stack of
    RREF bases: pivot patterns in lexicographic order, and within one the
    free entries (row by row, left to right) are the base-q digits of a
    counter, least significant first."""
    q = F.q
    out = np.zeros((gaussian_binomial(d, k, q), k, d), dtype=np.int64)
    at = 0
    for pivots in itertools.combinations(range(d), k):
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, d)
                if c not in pivots]
        block = out[at:at + q ** len(free)]
        block[:, range(k), pivots] = 1
        codes = np.arange(len(block))
        for j, (r, c) in enumerate(free):
            block[:, r, c] = codes // q**j % q
        at += len(block)
    return out


def _subspaces(F, d, stack):
    """The Subspace points of the rows of an RREF stack."""
    pivots = (stack != 0).argmax(axis=2).tolist()
    return [Subspace(F, d, B, p) for B, p in zip(stack, pivots)]


def gaussian_binomial(d, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# -- domain builders ----------------------------------------------------------

def build_projective_points(d, q):
    """All 1-subspaces of GF(q)^d; N = (q^d - 1)/(q - 1)."""
    if d < 2:
        raise ActionError("need d >= 2")
    n = (q**d - 1) // (q - 1)
    if n > SIZE_CAP:
        raise ActionError("size cap exceeded")
    F = gf.field_of_order(q)
    pts = _subspaces(F, d, enumerate_subspaces(F, d, 1))
    assert len(pts) == n
    return ActionDomain("projective_points", pts, F, {"d": d, "q": q})


def build_subspace_domain(d, q, k):
    """All k-subspaces of GF(q)^d (the linear-family domain)."""
    F = gf.field_of_order(q)
    n = gaussian_binomial(d, k, q)
    if n > SIZE_CAP:
        raise ActionError("size cap exceeded")
    pts = _subspaces(F, d, enumerate_subspaces(F, d, k))
    assert len(pts) == n
    return ActionDomain("subspaces_k", pts, F, {"d": d, "q": q, "k": k})


def witt_index(form):
    """Maximal dimension of a totally singular subspace, from the form's
    standard shape."""
    d = form.dim
    if form.kind == "symplectic":
        return d // 2
    if form.kind == "hermitian":
        return d // 2
    if form.kind == "quadratic":
        return d // 2 - form.meta.get("witt_defect", 0)
    raise ActionError("witt index undefined for this form kind")


def build_totally_singular(form, k, family=None):
    """All totally singular k-subspaces of the form's space.

    family in {'greek', 'latin'} selects one of the two classes of
    maximal totally singular subspaces of a plus-type quadratic space
    (same family iff the codimension of the intersection is even);
    'greek' is the family of the lexicographically least subspace.
    """
    F = form.field
    d = form.dim
    if k > witt_index(form):
        raise ActionError(f"k={k} exceeds the Witt index {witt_index(form)}")
    if family is not None and (form.kind != "quadratic" or k != d // 2
                               or form.meta.get("witt_defect") != 0):
        raise ActionError("family split only for maximal t.s. subspaces, plus type")
    if gaussian_binomial(d, k, F.q) > SIZE_CAP:
        raise ActionError("size cap exceeded")
    S = enumerate_subspaces(F, d, k)
    pts = _subspaces(F, d, S[is_totally_singular(form, S)])
    params = {"d": d, "q": F.q, "k": k, "form": form.kind}
    if family is None:
        return ActionDomain("totally_singular_k", pts, F, params, form=form)
    pts.sort(key=_point_key)
    base = pts[0]
    def is_greek(W):
        return (k - subspace_meet(base, W).dim) % 2 == 0
    chosen = [W for W in pts if is_greek(W) == (family == "greek")]
    params["family"] = family
    return ActionDomain("max_isotropic_family", chosen, F, params, form=form)


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
    pts = _subspaces(F, d, S[linalg.eval_quadratic_batch(form, S[:, 0]) != 0])
    params = {"d": d, "q": F.q, "witt_defect": form.meta.get("witt_defect")}
    if "mu" in form.meta:
        params["mu"] = int(form.meta["mu"])   # elliptic-form parameter choice
    return ActionDomain("nonsingular_1", pts, F, params, form=form)


def build_pair_domain(d, q, k, mode):
    """Pairs {W, U} with dim W = k, dim U = d-k and either V = W + U
    (mode 'complement') or W <= U (mode 'incident'); k < d/2, so the pair
    is canonically ordered with the k-dimensional member first."""
    if mode not in ("complement", "incident"):
        raise ActionError(f"unknown pair mode {mode!r}")
    if not 1 <= k < d / 2:
        raise ActionError("pair domains need 1 <= k < d/2")
    F = gf.field_of_order(q)
    small = _subspaces(F, d, enumerate_subspaces(F, d, k))
    big = _subspaces(F, d, enumerate_subspaces(F, d, d - k))
    pts = []
    for W in small:
        for U in big:
            if mode == "complement":
                if subspace_meet(W, U).dim == 0:
                    pts.append((W, U))
            else:
                if U.contains(W):
                    pts.append((W, U))
    if len(pts) > SIZE_CAP:
        raise ActionError("size cap exceeded")
    for W, U in pts:
        if mode == "complement":
            assert subspace_sum(W, U).dim == d
    return ActionDomain(f"pair_{mode}", pts, F, {"d": d, "q": q, "k": k})


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
    values = linalg.eval_quadratic_batch(theta0, vs)
    traces = np.array([trace_bit(F, int(v)) for v in values])
    if sign in ("+", 1, "plus"):
        keep, kind = traces == 0, "quad_forms_plus"
    elif sign in ("-", -1, "minus"):
        keep, kind = traces == 1, "quad_forms_minus"
    elif sign is None:
        keep, kind = np.ones(len(vs), bool), "quad_forms_all"
    else:
        raise ActionError(f"unknown sign {sign!r}")
    pts = [QuadFormPoint(v) for v in vs[keep]]
    return ActionDomain(kind, pts, F, {"m": m, "q": q}, form=theta0)


def build_nondegenerate_domain(form, k):
    """All non-degenerate k-subspaces for the form.  Whether these split
    into several socle orbits is the caller's concern (run the orbit
    algorithm downstream); no canonical orbit is selected here."""
    F = form.field
    d = form.dim
    if gaussian_binomial(d, k, F.q) > SIZE_CAP:
        raise ActionError("size cap exceeded")
    S = enumerate_subspaces(F, d, k)
    pts = _subspaces(F, d, S[is_nondegenerate(form, S)])
    return ActionDomain("nondegenerate_k", pts, F,
                        {"d": d, "q": F.q, "k": k, "form": form.kind}, form=form)


# -- permutation induction -----------------------------------------------------

def _act_point(g, pt, dom):
    if isinstance(pt, Subspace):
        return g.act_subspace(pt)
    if isinstance(pt, tuple):
        images = sorted((g.act_subspace(c) for c in pt),
                        key=lambda s: (s.dim, s.key()))
        return tuple(images)
    return _act_form_point(g, pt, dom)


def _act_form_point(g, pt, dom):
    """theta^g(u) = (theta(u g^{-1}))^{sigma^k}: recover the parameter of
    the image form from its values on the standard basis.

    theta_0 vanishes on every basis vector, so with s_i = theta^g(e_i)
    the image parameter solves phi(e_i, a') = sqrt(s_i); with the
    standard f = (0 I; I 0) in characteristic 2 that gives a' = w f.
    """
    if g.dual:
        raise ActionError("duality elements do not act on the forms domain")
    F = g.field
    theta0 = dom.form
    ginv = g.inverse_element()
    rows = ginv.matrix                      # e_i g^{-1}, as rows
    vals = linalg.eval_quadratic_batch(theta0, rows)
    a_rep = np.broadcast_to(pt.a, rows.shape)
    phi_vals = linalg.eval_bilinear_batch(theta0, rows, a_rep)
    s = F.add(vals, F.mul(phi_vals, phi_vals))
    s = F.frob(s, g.frob_power)
    w = F.frob(s, F.f - 1)                  # square roots
    aprime = linalg.mat_vec(F, w, theta0.polar_gram())
    return QuadFormPoint(aprime)


def induce_permutation(g, dom):
    """The permutation induced by a semilinear element on the domain.

    Raises if any image falls outside the domain (the domain is then not
    invariant: a construction bug, per the domain contracts)."""
    images = np.empty(dom.N, dtype=np.int32)
    for i, pt in enumerate(dom.points):
        images[i] = dom.index_of(_act_point(g, pt, dom))
    return Permutation(images)   # validates bijectivity


def induce_group(elements, dom, name=None):
    return PermGroup(dom.N, [induce_permutation(g, dom) for g in elements],
                     name=name)


def build_group_action(spec, dom):
    """classical_generators -> induced permutation group, applying the
    derived-subgroup flag at the permutation level.  The group's matrix
    field and dimension must be the domain's."""
    if not isinstance(spec, GroupSpec):
        spec = GroupSpec.deserialize(spec)
    F = spec.matrix_field()
    if F != dom.field:
        raise ActionError(f"group {spec.family}({spec.d},{spec.q}) has matrices "
                          f"over {F!r} but the domain lives over {dom.field!r}")
    d = dom.form.dim if dom.form is not None else dom.params["d"]
    if spec.d != d:
        raise ActionError(f"group {spec.family}({spec.d},{spec.q}) acts on "
                          f"dimension {spec.d} but the domain's ambient "
                          f"dimension is {d}")
    gens, _ = classical_generators(spec)
    name = f"{spec.family}({spec.d},{spec.q})"
    if spec.extensions:
        name += "." + "+".join(spec.extensions)
    G = induce_group(gens, dom, name=name)
    if spec.derived:
        G = derived_subgroup(G)
        G.name = name + "'"
    return G


def theta_value(dom, pt, u):
    """Evaluate theta_a at a vector (test and report helper)."""
    theta0 = dom.form
    F = theta0.field
    u = np.asarray(u, dtype=np.int64)
    base = eval_form(theta0, u)
    cross = linalg.eval_bilinear_batch(theta0, u[None, :], pt.a[None, :])[0]
    return int(F.add(base, F.mul(cross, cross)))


# -- descriptor dispatch -------------------------------------------------------

def build_domain(desc):
    """Build a domain from a JSON-style descriptor {kind, params...}."""
    if not isinstance(desc, dict):
        raise ActionError("action descriptor must be a JSON object")
    if "kind" not in desc:
        raise ActionError("action descriptor is missing 'kind'")
    kind = desc["kind"]

    def need(key):
        if key not in desc:
            raise ActionError(f"action descriptor {kind!r} is missing {key!r}")
        if key != "form" and not isinstance(desc[key], int):
            raise ActionError(f"action descriptor {kind!r} needs an integer {key!r}")
        return desc[key]

    if kind == "projective_points":
        return build_projective_points(need("d"), need("q"))
    if kind == "subspaces_k":
        return build_subspace_domain(need("d"), need("q"), need("k"))
    if kind in ("totally_singular_k", "max_isotropic_family"):
        form = _form_from_name(need("form"), need("d"), need("q"))
        return build_totally_singular(form, need("k"), desc.get("family"))
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
    if kind == "nondegenerate_k":
        form = _form_from_name(need("form"), need("d"), need("q"))
        return build_nondegenerate_domain(form, need("k"))
    raise ActionError(f"unknown domain kind {kind!r}")


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
        return linalg.hermitian_form(E, d, conj_power=F.f)
    raise ActionError(f"unknown form name {name!r}")
