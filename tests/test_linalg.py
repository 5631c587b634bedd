import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    annihilator_set, brute_nondegenerate, brute_totally_singular,
    full_gram_nondegenerate, full_gram_totally_singular, span_vectors, vector_set,
)
from ibiskit import linalg
from ibiskit.actions import enumerate_subspaces, gaussian_binomial
from ibiskit.gf import GFError, field_of_order, make_field, trace_bit
from ibiskit.linalg import (
    PFAFFIAN_COORDS, LinalgError, annihilator, det, eval_form, hermitian_form, inverse,
    is_nondegenerate, is_totally_singular, klein_map, mat_mul, pfaffian4,
    pfaffian_quadric_form, quadratic_minus, quadratic_plus, quadratic_theta0,
    rank_stack, symplectic_form,
)
from ibiskit.witnesses import _span_and_meet_ok

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def all_vectors(F, d):
    out = []
    for code in range(F.q**d):
        v, rest = [], code
        for _ in range(d):
            v.append(rest % F.q)
            rest //= F.q
        out.append(np.array(v, dtype=np.int64))
    return out


def all_subspaces(F, d, k):
    """Brute-force enumeration by spanning sets (oracle for counts): the
    distinct vector sets of size q^k spanned by k nonzero vectors."""
    seen = set()
    vecs = [v for v in all_vectors(F, d) if v.any()]
    for comb in itertools.combinations(vecs, k):
        W = frozenset(vector_set(F, np.array(comb)))
        if len(W) == F.q**k:
            seen.add(W)
    return seen


def basis(F, vectors):
    """The RREF basis of the span of the vectors."""
    return linalg.rref(F, np.array(vectors, dtype=np.int64))[0]


def test_canonicalize_hand_rref():
    W = basis(F2, [[1, 1, 0], [0, 1, 0]])
    assert W.tolist() == [[1, 0, 0], [0, 1, 0]]


def test_canonicalize_empty_and_full():
    assert basis(F2, np.zeros((0, 3))).shape == (0, 3)
    assert basis(F2, [[0, 0, 0], [0, 0, 0]]).shape == (0, 3)
    V = basis(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert len(V) == 3


def test_canonicalize_idempotent_and_equality():
    # the RREF basis is a function of the span: equal spans, equal arrays
    rng = random.Random(3)
    for _ in range(30):
        vecs = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        W = basis(F3, vecs)
        assert np.array_equal(basis(F3, W), W)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        assert np.array_equal(basis(F3, shuffled), W)
        assert vector_set(F3, W) == vector_set(F3, vecs)


def test_canonicalize_ambient_mismatch():
    with pytest.raises(LinalgError):
        basis(F2, [1, 0])
    with pytest.raises(LinalgError):
        linalg.rref_stack(F2, np.zeros((3, 2), dtype=np.int64))


def test_sum_meet_trivia():
    A = basis(F2, [[1, 0, 0]])
    B = basis(F2, [[0, 1, 0]])
    assert rank_stack(F2, np.array([np.vstack([A, A]), np.vstack([A, B])])
                      ).tolist() == [1, 2]


def test_sum_meet_dimension_identity_fuzz():
    # dim(A + B) is the rank of both bases together; the meet's size from
    # Grassmann's formula, q^(dim A + dim B - dim(A + B)), is checked
    # against the intersection of the vector sets
    rng = random.Random(17)
    for _ in range(60):
        A, B = (basis(F3, [[rng.randrange(3) for _ in range(5)]
                           for _ in range(rng.randrange(1, 4))])
                for _ in range(2))
        s = int(rank_stack(F3, np.vstack([A, B])[None])[0])
        VA, VB = vector_set(F3, A), vector_set(F3, B)
        assert 3**s == len({tuple((a + b) % 3 for a, b in zip(x, y))
                            for x in VA for y in VB})
        assert 3 ** (len(A) + len(B) - s) == len(VA & VB)


def test_matrix_inverse_and_det():
    rng = random.Random(5)
    n = 4
    while True:
        A = np.array([[rng.randrange(3) for _ in range(n)] for _ in range(n)])
        if det(F3, A) != 0:
            break
    Ainv = inverse(F3, A)
    assert np.array_equal(mat_mul(F3, A, Ainv), linalg.identity(F3, n))


def _leibniz_det(F, A):
    """sum over permutations s of sign(s) prod_i A[i, s(i)], by scalar
    field arithmetic."""
    total = 0
    for s in itertools.permutations(range(len(A))):
        term = 1
        for i, j in enumerate(s):
            term = int(F.mul(term, int(A[i, j])))
        inversions = sum(a > b for a, b in itertools.combinations(s, 2))
        total = int(F.add(total, F.neg(term) if inversions % 2 else term))
    return total


@pytest.mark.parametrize("F", [F3, F4], ids=["q3", "q4"])
def test_det_of_a_stack_matches_leibniz(F):
    # a stack gives one determinant per matrix, a single matrix an int;
    # low ranks and zero leading columns force singular cases and swaps
    rng = np.random.default_rng(7)
    S = rng.integers(0, F.q, size=(60, 4, 4))
    S[::5, 1] = S[::5, 0]
    S[1::5, :, 0] = 0
    S[2::5, 0, 0] = 0
    dets = det(F, S)
    assert dets.shape == (60,)
    assert [int(x) for x in dets] == [_leibniz_det(F, A) for A in S]
    assert isinstance(det(F, S[3]), int) and det(F, S[3]) == dets[3]
    assert {int(x) for x in dets[::5]} == {0}


def test_eval_form_standard_theta0():
    # standard split forms in dim 4: theta0(e1) = 0, phi(e1, e3) = 1
    Q = quadratic_theta0(F2, 4)
    phi = symplectic_form(F2, 4)
    e1 = np.array([1, 0, 0, 0])
    e3 = np.array([0, 0, 1, 0])
    assert eval_form(Q, e1) == 0
    assert eval_form(phi, e1, e3) == 1


def test_eval_form_alternating():
    phi = symplectic_form(F4, 4)
    for u in all_vectors(F4, 4):
        assert eval_form(phi, u, u) == 0


def test_theta0_of_epsilon_vector():
    # theta0(eps*e1 + e_{m+1}) = eps  (m = 2)
    Q = quadratic_theta0(F4, 4)
    eps = F4.generator_code
    v = np.array([eps, 0, 1, 0])
    assert eval_form(Q, v) == eps


def test_polarization_identity_exhaustive_small():
    for F in (F2, F4):
        for Q in (quadratic_theta0(F, 4), quadratic_plus(F, 4), quadratic_minus(F, 4)):
            vs = np.array(all_vectors(F, 4))
            n = len(vs)
            U = np.repeat(vs, n, axis=0)
            V = np.tile(vs, (n, 1))
            lhs = F.sub(F.sub(linalg.eval_quadratic_batch(Q, F.add(U, V)),
                              linalg.eval_quadratic_batch(Q, U)),
                        linalg.eval_quadratic_batch(Q, V))
            rhs = linalg.eval_bilinear_batch(Q, U, V)
            assert np.array_equal(lhs, rhs)
            # spot-check batch kernels against the scalar evaluator
            rng = random.Random(1)
            for _ in range(20):
                k = rng.randrange(len(U))
                polar = mat_mul(F, mat_mul(F, U[k][None, :], Q.polar_gram()),
                                V[k][:, None])
                assert int(lhs[k]) == int(polar[0, 0])
                assert int(linalg.eval_quadratic_batch(Q, U[k][None, :])[0]) \
                    == eval_form(Q, U[k])


def test_polarization_identity_random_f3():
    Q = linalg.FormSpec("quadratic", F3, np.triu(np.arange(25).reshape(5, 5) % 3))
    rng = random.Random(23)
    for _ in range(1000):
        u = np.array([rng.randrange(3) for _ in range(5)])
        v = np.array([rng.randrange(3) for _ in range(5)])
        lhs = F3.sub(F3.sub(eval_form(Q, F3.add(u, v)), eval_form(Q, u)), eval_form(Q, v))
        assert int(lhs) == int(linalg.eval_bilinear_batch(Q, u, v))


def test_form_arity_errors():
    Q = quadratic_theta0(F2, 4)
    phi = symplectic_form(F2, 4)
    with pytest.raises(LinalgError):
        eval_form(Q, [1, 0, 0, 0], [0, 1, 0, 0])
    with pytest.raises(LinalgError):
        eval_form(phi, [1, 0, 0, 0])
    with pytest.raises(LinalgError):
        eval_form(phi, [1, 0], [0, 1])


def test_totally_singular_examples():
    Q = quadratic_theta0(F2, 4)
    W = basis(F2, [[1, 0, 0, 0], [0, 1, 0, 0]])  # <e1, e2>
    assert is_totally_singular(Q, W[None])[0]
    phi = symplectic_form(F3, 4)
    V = basis(F3, np.eye(4, dtype=int))
    assert is_nondegenerate(phi, V[None])[0]


FORM_KINDS = {
    "symplectic": lambda q, d: symplectic_form(field_of_order(q), d),
    "hermitian": lambda q, d: hermitian_form(field_of_order(q * q), d),
    "plus": lambda q, d: quadratic_plus(field_of_order(q), d),
    "minus": lambda q, d: quadratic_minus(field_of_order(q), d),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(FORM_KINDS)), q=st.sampled_from([2, 3, 4, 5]),
       m=st.integers(1, 3), data=st.data())
def test_subspace_masks_match_brute_force(kind, q, m, data):
    # the stack masks against the definitions, over every vector of W;
    # each example checks a passing and a failing row of each mask (small
    # spaces keep the brute force cheap)
    form = FORM_KINDS[kind](q, 2 * m)
    F = form.field
    ks = [k for k in range(1, m + 1)
          if F.q ** k <= 16 and gaussian_binomial(2 * m, k, F.q) <= 12000]
    assume(ks)
    k = data.draw(st.sampled_from(ks))
    S = enumerate_subspaces(F, 2 * m, k)
    ts = linalg.is_totally_singular(form, S)
    nd = linalg.is_nondegenerate(form, S)
    rows = set()
    for mask in (ts, nd):
        for value in (True, False):
            idx = np.flatnonzero(mask == value)
            if len(idx):
                rows.add(int(idx[data.draw(st.integers(0, len(idx) - 1))]))
    for r in rows:
        assert ts[r] == brute_totally_singular(form, S[r])
        assert nd[r] == brute_nondegenerate(form, S[r])


# symplectic up to d = 6 at q = 3, so that k = 3 is covered
GRAM_GRID = ([("symplectic", 3, d) for d in (2, 4, 6)]
             + [("hermitian", q, d) for d in (3, 4) for q in (2, 3)]
             + [(kind, q, d) for kind in ("plus", "minus") for q in (2, 3)
                for d in (4, 6)]
             + [(kind, 4, 4) for kind in ("plus", "minus")])


@pytest.mark.parametrize("kind,q,d", GRAM_GRID,
                         ids=[f"{kind}-{q}-{d}" for kind, q, d in GRAM_GRID])
def test_gram_triangle_matches_the_full_gram(kind, q, d):
    # the predicates evaluate the upper triangle of the restricted Gram and
    # mirror it by the form's symmetry; the oracle evaluates every ordered
    # pair of basis rows
    form = FORM_KINDS[kind](q, d)
    for k in range(1, d):
        S = enumerate_subspaces(form.field, d, k)
        assert np.array_equal(is_nondegenerate(form, S),
                              full_gram_nondegenerate(form, S)), k
        assert np.array_equal(is_totally_singular(form, S),
                              full_gram_totally_singular(form, S)), k


@pytest.mark.parametrize("kind,q,d,k", [("symplectic", 3, 4, 2), ("hermitian", 2, 4, 2),
                                        ("plus", 2, 6, 3), ("minus", 3, 4, 1)])
def test_subspace_masks_blockwise(monkeypatch, kind, q, d, k):
    # blocks of a few rows (some of one row) give the one-block masks
    form = FORM_KINDS[kind](q, d)
    S = enumerate_subspaces(form.field, d, k)
    whole = linalg.is_totally_singular(form, S), linalg.is_nondegenerate(form, S)
    for codes in (1, 100):
        monkeypatch.setattr(linalg, "BLOCK_CODES", codes)
        assert np.array_equal(linalg.is_totally_singular(form, S), whole[0])
        assert np.array_equal(linalg.is_nondegenerate(form, S), whole[1])


@pytest.mark.parametrize("kind,d,q,k", [("plus", 6, 2, 3), ("minus", 6, 2, 3),
                                        ("plus", 4, 4, 1), ("minus", 4, 4, 1)])
def test_nondegenerate_rank_rule_in_characteristic_2(kind, d, q, k):
    # the polar Gram of a quadratic form in characteristic 2 is alternating,
    # so for odd k it never has rank k: Q on the radical decides every row
    form = FORM_KINDS[kind](q, d)
    S = enumerate_subspaces(form.field, d, k)
    nd = is_nondegenerate(form, S)
    assert nd.any() and not nd.all()
    for B, keep in zip(S, nd):
        assert keep == brute_nondegenerate(form, B)


def test_least_nonsplit_mu_by_brute_force():
    for q in range(2, 82):
        try:
            F = field_of_order(q)
        except GFError:
            continue
        splits = [any(int(F.add(F.add(F.mul(t, t), t), mu)) == 0 for t in range(q))
                  for mu in range(q)]
        assert linalg._least_nonsplit_mu(F) == splits.index(False)


def test_nondegenerate_mask_memory_bounded():
    # Sp4(16) on 2-spaces: 70,161 candidates; in one block the temporaries
    # peak near 57 MiB, in blocks of BLOCK_CODES near 22 MiB
    import tracemalloc
    phi = symplectic_form(field_of_order(16), 4)
    S = enumerate_subspaces(phi.field, 4, 2)
    tracemalloc.start()
    try:
        nd = linalg.is_nondegenerate(phi, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(nd.sum()) == 16**2 * (16**2 + 1)
    assert peak < 32 * 2**20


def test_nonsingular_point_example():
    Q = quadratic_plus(F2, 4)  # X1X2 + X3X4
    assert eval_form(Q, np.array([1, 1, 0, 0])) != 0
    assert eval_form(Q, np.array([1, 0, 0, 0])) == 0
    vs = np.array([[1, 1, 0, 0], [1, 0, 0, 0]])
    assert list(linalg.eval_quadratic_batch(Q, vs) != 0) == [True, False]


def test_hermitian_form_symmetry():
    h = hermitian_form(F4, 3)
    rng = random.Random(7)
    for _ in range(50):
        u = np.array([rng.randrange(4) for _ in range(3)])
        v = np.array([rng.randrange(4) for _ in range(3)])
        assert eval_form(h, u, v) == int(F4.frob(eval_form(h, v, u), 1))


def test_quadratic_minus_mu_irreducible():
    Qm = quadratic_minus(F4, 4)
    mu = Qm.meta["mu"]
    assert trace_bit(F4, mu) == 1  # T^2+T+mu irreducible over GF(2^f) iff Tr(mu)=1
    for t in range(4):
        assert int(F4.add(F4.add(F4.mul(t, t), t), mu)) != 0


def test_pfaffian_formula_cases():
    X = np.zeros((4, 4), dtype=np.int64)
    X[0, 1] = X[1, 0] = 1  # skew over GF(2): -1 = 1
    X[2, 3] = X[3, 2] = 1
    assert pfaffian4(F2, X) == 1
    assert pfaffian4(F2, np.zeros((4, 4), dtype=np.int64)) == 0


def random_skew(F, rng):
    X = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(i + 1, 4):
            X[i, j] = rng.randrange(F.q)
            X[j, i] = int(F.neg(X[i, j]))
    return X


def test_pfaffian_squared_is_det():
    rng = random.Random(2)
    for F in (F2, F3, F4):
        for _ in range(100):
            X = random_skew(F, rng)
            pf = pfaffian4(F, X)
            assert int(F.mul(pf, pf)) == det(F, X)


def test_pfaffian_congruence_rule_random():
    rng = random.Random(9)
    for _ in range(500):
        X = random_skew(F3, rng)
        P = np.array([[rng.randrange(3) for _ in range(4)] for _ in range(4)])
        Y = mat_mul(F3, mat_mul(F3, P.T, X), P)
        assert pfaffian4(F3, Y) == int(F3.mul(det(F3, P), pfaffian4(F3, X)))


def test_pfaffian_shape_errors():
    with pytest.raises(LinalgError):
        pfaffian4(F2, np.zeros((3, 3), dtype=np.int64))
    bad = np.zeros((4, 4), dtype=np.int64)
    bad[0, 0] = 1
    with pytest.raises(LinalgError):
        pfaffian4(F2, bad)


def test_klein_map_basic():
    L = basis(F2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    pt = klein_map(F2, L[None])
    assert pt.tolist() == [[[1, 0, 0, 0, 0, 0]]]  # only x12 nonzero
    Q = pfaffian_quadric_form(F2)
    assert eval_form(Q, pt[0, 0]) == 0


def test_klein_map_injective_on_pg32():
    lines = enumerate_subspaces(F2, 4, 2)
    assert len(lines) == 35
    images = {B.tobytes() for B in klein_map(F2, lines)}
    assert len(images) == 35


@pytest.mark.parametrize("q,expected", [(2, 35), (3, 130)])
def test_klein_quadric_point_count(q, expected):
    F = field_of_order(q)
    Q = pfaffian_quadric_form(F)
    # projective points with Pf = 0
    count = 0
    for v in all_vectors(F, 6):
        if v.any():
            nz = int(np.nonzero(v)[0][0])
            if v[nz] == 1 and eval_form(Q, v) == 0:  # normalized representative
                count += 1
    assert count == expected == (q**2 + 1) * (q**2 + q + 1)


def test_klein_map_dim_error():
    with pytest.raises(LinalgError):
        klein_map(F2, basis(F2, [[1, 0, 0, 0]])[None])
    with pytest.raises(LinalgError):
        klein_map(F2, basis(F2, [[1, 0, 0, 0], [0, 1, 0, 0]]))


def test_complement_dual_reverses_inclusion():
    A = basis(F3, [[1, 0, 0, 0]])
    B = basis(F3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    dA, dB = annihilator(F3, A[None])[0], annihilator(F3, B[None])[0]
    assert len(dB) == 2
    assert vector_set(F3, dB) <= vector_set(F3, dA)
    assert vector_set(F3, dB) == annihilator_set(F3, vector_set(F3, B), 4)
    assert np.array_equal(annihilator(F3, dB[None])[0], B)


def test_subspace_count_oracle_gf2_dim4():
    # Gaussian binomial [4 choose 2]_2 = 35
    assert len(all_subspaces(F2, 4, 2)) == 35
    assert all_subspaces(F2, 4, 2) == {
        frozenset(vector_set(F2, B)) for B in enumerate_subspaces(F2, 4, 2)}


def test_matrix_type_wrapper():
    C = mat_mul(F3, [[1, 2], [0, 1]], [[1, 1], [1, 2]])
    assert C.tolist() == [[0, 2], [1, 2]]
    with pytest.raises(LinalgError):
        mat_mul(F3, [[1, 2], [0, 1]], [[1, 0, 0]])


def test_form_constructor_guards():
    import numpy as np
    with pytest.raises(LinalgError):
        linalg.FormSpec("symplectic", F3, np.eye(2, dtype=np.int64))
    with pytest.raises(LinalgError):
        linalg.FormSpec("quadratic", F3, np.ones((2, 2), dtype=np.int64) * 2
                        + np.tril(np.ones((2, 2), dtype=np.int64), -1))
    with pytest.raises(LinalgError):
        linalg.FormSpec("celestial", F3, np.eye(2, dtype=np.int64))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_span_meet_predicate_and_klein_map_against_vector_sets(data):
    # the batched span-and-meet test of witness L3.14 on a few random
    # k-subspaces, against their vector sets: the span by closing under
    # addition, the meet by intersecting
    q = data.draw(st.sampled_from([2, 3, 4]))
    F = field_of_order(q)
    d = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, d - 1))
    S = enumerate_subspaces(F, d, k)
    B = S[data.draw(st.lists(st.integers(0, len(S) - 1), min_size=1, max_size=3))]
    sets = [vector_set(F, W) for W in B]
    span = {(0,) * d}
    for W in sets:
        span = {tuple(map(int, F.add(x, y))) for x in span for y in W}
    meet = set.intersection(*sets)
    assert _span_and_meet_ok(F, B) == (len(span) == q**d and len(meet) == 1)

    # the stacked Klein map: the image of a line L is the set of Pluecker
    # vectors x_i y_j - y_i x_j over all pairs x, y of vectors of L
    lines = enumerate_subspaces(F, 4, 2)
    L = lines[data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=1,
                                 max_size=4))]
    images = klein_map(F, L)
    assert images.shape == (len(L), 1, 6)
    for line, image in zip(L, images):
        vs = span_vectors(F, line)
        pluecker = {tuple(int(F.sub(F.mul(x[i], y[j]), F.mul(y[i], x[j])))
                          for i, j in PFAFFIAN_COORDS)
                    for x in vs for y in vs}
        assert pluecker == vector_set(F, image)
