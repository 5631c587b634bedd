import random

import numpy as np
import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from conftest import (
    compose, invert, is_identity, move_vectors, same_element, vector_set,
)
from ibiskit import groups, linalg
from ibiskit.actions import _act_subspaces
from ibiskit.gf import field_of_order, make_field
from ibiskit.groups import (
    FAMILIES, GroupError, GroupSpec, _preserving, _standard_form, _upper_tri_rep,
    certified_order, classical_generators, induced_on_nonzero_vectors,
    matrix_group_order, outer_element, transvection_symplectic,
)
from ibiskit.linalg import eval_form, symplectic_form
from ibiskit.perm import derived_subgroup

F2 = make_field(2, 1)
F4 = make_field(2, 2)


def act(F, g, B):
    """The RREF bases of the images of the stack B under the triple g."""
    M, k, dual = g
    return _act_subspaces(F, M[None], k, dual, B)[0]


def triples(M):
    """The matrices of a stack as (M, 0, no duality) triples."""
    return [(m, 0, False) for m in M]


CERTIFIED = [
    ("SL", 3, 2, 168),
    ("SL", 4, 2, 20160),
    ("SL", 2, 4, 60),
    ("SL", 2, 8, 504),
    ("SL", 3, 3, 5616),           # trivial center: SL_3(3) = PSL_3(3)
    ("SL", 4, 3, 12130560),
    ("GL", 2, 5, 480),
    ("Sp", 4, 2, 720),
    ("Sp", 4, 3, 51840),
    ("Sp", 4, 4, 979200),
    ("Sp", 4, 5, 9360000),
    ("Sp", 6, 2, 1451520),
    ("Sp", 2, 4, 60),
    ("Sp", 2, 8, 504),
    ("SU", 2, 2, 6),              # SU_2(q) = SL_2(q)
    ("SU", 3, 2, 216),
    ("SU", 4, 2, 25920),
    ("SU", 5, 2, 13685760),       # trivial center: SU_5(2) = PSU_5(2)
    ("SU", 6, 2, 27590492160),    # 3 |PSU_6(2)|
    ("SU", 3, 4, 62400),          # trivial center: SU_3(4) = PSU_3(4)
    ("SU", 4, 3, 13063680),       # 4 |PSU_4(3)|
    ("GU", 2, 2, 18),
    ("GU", 3, 2, 648),
    ("GU", 5, 2, 41057280),
    ("GU", 6, 2, 82771476480),
    ("OmegaPlus", 4, 4, 3600),
    ("OmegaMinus", 4, 4, 4080),
    ("OmegaPlus", 6, 2, 20160),
    ("OmegaMinus", 6, 2, 25920),
    ("SOplus", 6, 2, 40320),
    ("SOminus", 4, 4, 8160),
    ("SOplus", 4, 4, 7200),
    # Omega+(4, 2) = SL_2(2) x SL_2(2); the reflections of O+(4, 2)
    # generate only a subgroup of index 2
    ("GOplus", 4, 2, 72),
    ("SOplus", 4, 2, 72),
    ("OmegaPlus", 4, 2, 36),
    ("OmegaPlus", 8, 2, 174182400),
    ("OmegaMinus", 8, 2, 197406720),
    # odd q: Omega < SO < GO, each of index 2
    ("GOplus", 4, 3, 1152),
    ("SOplus", 4, 3, 576),
    ("GOminus", 4, 3, 1440),
    ("SOminus", 4, 3, 720),
    ("GOplus", 4, 5, 28800),
    ("SOplus", 4, 5, 14400),
    ("GOminus", 4, 5, 31200),
    ("SOminus", 4, 5, 15600),
    ("GOplus", 6, 3, 24261120),
    ("SOplus", 6, 3, 12130560),
    ("GOminus", 6, 3, 26127360),
    ("SOminus", 6, 3, 13063680),
]


@pytest.mark.parametrize("family,d,q,expected", CERTIFIED)
def test_certified_orders(family, d, q, expected):
    spec = GroupSpec(family, d, q)
    assert matrix_group_order(spec) == expected
    assert certified_order(spec) == expected


@pytest.mark.parametrize("family,d,q", [("SU", 4, 2), ("GU", 3, 2), ("Sp", 4, 3)])
def test_certified_order_refuses_generators_that_fall_short(monkeypatch, family, d, q):
    # one generator lies in the matrix group, so the chain targets the
    # formula, falls short of it, closes below it and is refused
    spec = GroupSpec(family, d, q)
    socle, form = classical_generators(spec)
    monkeypatch.setattr(groups, "classical_generators", lambda s: (socle[:1], form))
    with pytest.raises(GroupError, match="!= formula"):
        certified_order.__wrapped__(spec)


@pytest.mark.parametrize("family,d,q,expected", [
    row for row in CERTIFIED if GroupSpec(*row[:3]).matrix_field().q ** row[1] <= 301])
def test_certified_orders_match_sympy(family, d, q, expected):
    """sympy's order of the action on the at most 300 nonzero vectors."""
    G = induced_on_nonzero_vectors(GroupSpec(family, d, q))
    S = SympyGroup([SympyPermutation(g.tolist()) for g in G.generators])
    assert S.order() == expected


@pytest.mark.parametrize("family,d,expected", [
    ("OmegaPlus", 4, 288),        # SL_2(3) o SL_2(3)
    ("OmegaMinus", 4, 360),       # PSL_2(9)
    ("OmegaPlus", 6, 6065280),    # SL_4(3) / <-1>
    ("OmegaMinus", 6, 6531840),   # SU_4(3) / <-1>
])
def test_omega_order_at_odd_q(family, d, expected):
    assert matrix_group_order(GroupSpec(family, d, 3)) == expected


def test_generators_preserve_forms_exactly():
    for family, d, q, _ in CERTIFIED:
        spec = GroupSpec(family, d, q)
        gens, form = classical_generators(spec)
        assert form is None or _preserving(form, gens, 0).all()


def test_transvection_involution_and_isometry():
    form = symplectic_form(F4, 4)
    rng = random.Random(3)
    for _ in range(20):
        a = np.array([rng.randrange(4) for _ in range(4)])
        if not a.any():
            continue
        t = transvection_symplectic(a, form)
        assert np.array_equal(linalg.mat_mul(F4, t, t), linalg.identity(F4, 4))
        assert _preserving(form, t[None], 0)[0]
        for _ in range(5):
            u = np.array([rng.randrange(4) for _ in range(4)])
            v = np.array([rng.randrange(4) for _ in range(4)])
            ut = linalg.mat_mul(F4, u[None, :], t)[0]
            vt = linalg.mat_mul(F4, v[None, :], t)[0]
            assert eval_form(form, ut, vt) == eval_form(form, u, v)


def test_transvection_moves_partner():
    # a = e1, u = e_{m+1}: phi(u, a) = phi(f1, e1) = -1, so u -> u - a;
    # over GF(2) that is u + a
    form = symplectic_form(F2, 4)
    t = transvection_symplectic(np.array([1, 0, 0, 0]), form)
    img = linalg.mat_mul(F2, np.array([[0, 0, 1, 0]]), t)[0]
    assert list(img) == [1, 0, 1, 0]


def test_transvection_rejects_zero_and_odd_char():
    with pytest.raises(GroupError):
        transvection_symplectic(np.zeros(4, dtype=int), symplectic_form(F2, 4))
    F3 = make_field(3, 1)
    with pytest.raises(GroupError):
        transvection_symplectic(np.array([1, 0, 0, 0]), symplectic_form(F3, 4))


def test_derived_subgroup_sp42():
    G = induced_on_nonzero_vectors(GroupSpec("Sp", 4, 2))
    assert G.order() == 720
    D = derived_subgroup(G)
    assert D.order() == 360


def test_derived_subgroup_perfect_sl32():
    G = induced_on_nonzero_vectors(GroupSpec("SL", 3, 2))
    assert derived_subgroup(G).order() == 168


def test_semilinear_composition_associative():
    spec = GroupSpec("Sp", 4, 4)
    gens, _ = classical_generators(spec)
    rng = random.Random(8)
    frob = outer_element("frob", spec)
    pool = triples(gens[:6]) + [frob]
    F = F4
    for _ in range(25):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        assert same_element(compose(F, compose(F, a, b), c),
                            compose(F, a, compose(F, b, c)))


def test_duality_conjugation_law():
    spec = GroupSpec("SL", 3, 2)
    gens, _ = classical_generators(spec)
    iota = outer_element("dual", spec)
    F = F2
    assert is_identity(compose(F, iota, iota))
    for g in triples(gens[:6]):
        conj = compose(F, compose(F, iota, g), iota)
        assert not conj[2]
        expected = linalg.inverse(F, g[0]).T
        assert np.array_equal(conj[0], expected)


def test_duality_reverses_inclusion_on_subspaces():
    spec = GroupSpec("SL", 4, 2)
    iota = outer_element("dual", spec)
    A = np.array([[1, 0, 0, 0]])
    B = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    [Ai], [Bi] = act(F2, iota, A[None]), act(F2, iota, B[None])
    assert len(Ai) == 3 and len(Bi) == 2
    assert vector_set(F2, Bi) <= vector_set(F2, Ai)


def test_frobenius_outer_order():
    spec = GroupSpec("Sp", 4, 4)
    phi = outer_element("frob", spec)
    assert not is_identity(phi)
    assert is_identity(compose(F4, phi, phi))  # f = 2
    full = outer_element("frob:2", spec)
    assert is_identity(full)


def similitude_scalar(g, form):
    """The c with M gram M^T = c frob(gram, k) for g = frob^k . M (both
    sides folded to upper-triangular representatives for a quadratic
    form), or None when g is no similitude of the form."""
    F = form.field
    M, k, _ = g
    lhs = linalg.mat_mul(F, linalg.mat_mul(F, M, form.gram), M.T)
    target = F.frob(form.gram, k)
    if form.kind == "quadratic":
        lhs, target = _upper_tri_rep(F, lhs), _upper_tri_rep(F, target)
    i, j = np.argwhere(target)[0]
    c = int(F.div(lhs[i, j], target[i, j]))
    return c if np.array_equal(lhs, F.mul(target, c)) else None


def test_diag_outer_is_symplectic_similitude():
    spec = GroupSpec("Sp", 4, 3)
    delta = outer_element("diag", spec)
    _, form = classical_generators(spec)
    assert not _preserving(form, delta[0][None], delta[1])[0]
    assert similitude_scalar(delta, form) not in (None, 1)


def test_frobenius_twist_form_check_direction():
    # a bare Frobenius element does not preserve a form with coefficients
    # outside the prime field (it maps Q to the twisted form Q^sigma)
    spec = GroupSpec("OmegaMinus", 4, 4)
    _, form = classical_generators(spec)
    assert form.meta["mu"] not in (0, 1)
    phi = outer_element("frob", GroupSpec("Sp", 4, 4))
    assert not _preserving(form, phi[0][None], phi[1])[0]
    assert similitude_scalar(phi, form) is None
    # while forms with prime-field Grams are twist-invariant
    _, sp_form = classical_generators(GroupSpec("Sp", 4, 4))
    assert _preserving(sp_form, phi[0][None], phi[1])[0]
    # the minus-type outer element follows the twist with a matrix that
    # carries the twisted form back
    M, k, _ = outer_element("frob", GroupSpec("GOminus", 4, 4))
    assert (M != linalg.identity(F4, 4)).any() and _preserving(form, M[None], k)[0]


def test_outer_element_invalid_kinds():
    with pytest.raises(GroupError):
        outer_element("dual", GroupSpec("Sp", 4, 3))
    with pytest.raises(GroupError):
        outer_element("banana", GroupSpec("SL", 3, 2))


def test_unitary_form_is_hermitian_antidiagonal():
    spec = GroupSpec("SU", 3, 2)
    _, form = classical_generators(spec)
    assert form.kind == "hermitian"
    assert form.gram[0, 2] == form.gram[1, 1] == form.gram[2, 0] == 1


def test_su_generators_have_det_one():
    for (d, q) in [(2, 3), (3, 2), (4, 2), (3, 3), (5, 2)]:
        spec = GroupSpec("SU", d, q)
        gens, _ = classical_generators(spec)
        E = spec.matrix_field()
        assert (linalg.det(E, gens) == 1).all()


def test_su33_certified():
    spec = GroupSpec("SU", 3, 3)
    # |SU_3(3)| = 6048
    assert matrix_group_order(spec) == 6048
    assert certified_order(spec) == 6048


def test_omega_odd_q_not_constructed():
    with pytest.raises(GroupError):
        classical_generators(GroupSpec("OmegaPlus", 4, 3))


def test_group_spec_validation_and_serialization():
    with pytest.raises(GroupError):
        GroupSpec("Sp", 5, 2)
    with pytest.raises(GroupError):
        GroupSpec("XX", 4, 2)
    spec = GroupSpec("Sp", 4, 4, extensions=("frob",), derived=False)
    assert GroupSpec.deserialize(spec.serialize()) == spec


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_odd_dimension_refused_exactly_with_an_alternating_or_quadratic_form(family):
    form = _standard_form(GroupSpec(family, 4, 2))
    if form is not None and form.kind in ("symplectic", "quadratic"):
        with pytest.raises(GroupError, match=f"^{family} needs even dimension$"):
            GroupSpec(family, 3, 2)
    else:
        assert GroupSpec(family, 3, 2).d == 3


def test_semilinear_inverse():
    spec = GroupSpec("Sp", 4, 4)
    gens, _ = classical_generators(spec)
    phi = outer_element("frob", spec)
    F = F4
    for g in triples(gens[:5]) + [phi, compose(F, (gens[0], 0, False), phi)]:
        assert is_identity(compose(F, g, invert(F, g)))
        assert is_identity(compose(F, invert(F, g), g))


def test_semilinear_subspace_action_is_homomorphism():
    # (W^g1)^g2 == W^(g1 g2), including duality and Frobenius factors
    spec = GroupSpec("SL", 3, 4)
    gens, _ = classical_generators(spec)
    iota = outer_element("dual", spec)
    phi = outer_element("frob", spec)
    F = spec.matrix_field()
    g0, g1 = triples(gens[:2])
    pool = triples(gens[:5]) + [iota, phi, compose(F, g0, iota),
                                compose(F, compose(F, iota, g1), phi)]
    rng = random.Random(6)
    subspaces = []
    while len(subspaces) < 6:
        vecs = [[rng.randrange(4) for _ in range(3)]
                for _ in range(rng.randrange(1, 3))]
        W = linalg.rref(F, np.array(vecs))[0]
        if len(W):
            subspaces.append(W[None])
    for _ in range(30):
        g1 = pool[rng.randrange(len(pool))]
        g2 = pool[rng.randrange(len(pool))]
        W = subspaces[rng.randrange(len(subspaces))]
        assert np.array_equal(act(F, g2, act(F, g1, W)), act(F, compose(F, g1, g2), W))


def test_semilinear_vector_action_matches_subspace_action():
    spec = GroupSpec("SL", 3, 3)
    gens, _ = classical_generators(spec)
    F = field_of_order(3)
    rng = random.Random(4)
    for _ in range(10):
        g = (gens[rng.randrange(len(gens))], 0, False)
        v = np.array([rng.randrange(3) for _ in range(3)])
        if not v.any():
            continue
        W = linalg.rref(F, v[None])[0]
        [img] = act(F, g, W[None])
        assert tuple(move_vectors(F, g, v[None, :])[0]) in vector_set(F, img)
