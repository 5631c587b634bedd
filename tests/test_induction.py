"""Induced permutations and the batched elimination against oracles that
never row-reduce: a point's image is the set of all its vectors moved by
g (for a duality element, the annihilator of that set), compared with the
vector set of the point at the induced index."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    annihilator_set, compose, generator_triples, induced_rows, vector_set,
)
from ibiskit.actions import ActionError, build_domain, build_group_action
from ibiskit.gf import field_of_order
from ibiskit.groups import GroupSpec
from ibiskit.linalg import annihilator, rref, rref_stack
from oracles import theta_value


def move(F, g, v):
    """v -> frob(v, k) M for the triple g = (M, k, dual), one scalar field
    operation at a time."""
    M, k, _ = g
    v = [int(F.frob(x, k)) for x in v]
    out = []
    for j in range(len(M)):
        acc = 0
        for i in range(len(M)):
            acc = int(F.add(acc, F.mul(v[i], int(M[i, j]))))
        out.append(acc)
    return tuple(out)


def image_sets(F, g, members):
    """The vector sets of the images of the bases in members under g,
    smallest first."""
    d = len(g[0])
    out = []
    for W in members:
        img = {move(F, g, v) for v in vector_set(F, W)}
        out.append(annihilator_set(F, img, d) if g[2] else img)
    return sorted(out, key=len)


def elements(spec):
    """The generators of the spec and the product of the first and last."""
    gens = generator_triples(spec)
    return gens + [compose(spec.matrix_field(), gens[0], gens[-1])]


SUBSPACE_CASES = [
    ({"family": "SL", "d": 3, "q": 3},
     {"kind": "projective_points", "d": 3, "q": 3}),
    ({"family": "SL", "d": 3, "q": 4, "extensions": ["frob"]},
     {"kind": "projective_points", "d": 3, "q": 4}),
    ({"family": "GL", "d": 4, "q": 2, "extensions": ["dual"]},
     {"kind": "subspaces_k", "d": 4, "q": 2, "k": 2}),
    ({"family": "SL", "d": 3, "q": 2, "extensions": ["dual"]},
     {"kind": "pair_complement", "d": 3, "q": 2, "k": 1}),
    ({"family": "SL", "d": 4, "q": 2, "extensions": ["dual"]},
     {"kind": "pair_incident", "d": 4, "q": 2, "k": 1}),
    ({"family": "Sp", "d": 4, "q": 3},
     {"kind": "totally_singular_k", "form": "symplectic", "d": 4, "q": 3, "k": 2}),
    ({"family": "SU", "d": 4, "q": 2},
     {"kind": "totally_singular_k", "form": "hermitian", "d": 4, "q": 2, "k": 2}),
    ({"family": "Sp", "d": 4, "q": 3},
     {"kind": "nondegenerate_k", "form": "symplectic", "d": 4, "q": 3, "k": 2}),
    ({"family": "OmegaMinus", "d": 4, "q": 4},
     {"kind": "nonsingular_1", "form": "-", "d": 4, "q": 4}),
    ({"family": "GL", "d": 3, "q": 3},
     {"kind": "subspaces_k", "d": 3, "q": 3, "k": 2}),
]


@pytest.mark.parametrize("group,action", SUBSPACE_CASES,
                         ids=[f"{g['family']}{g['d']}({g['q']})-{a['kind']}"
                              for g, a in SUBSPACE_CASES])
def test_induced_images_match_vector_sets(group, action):
    dom = build_domain(action)
    spec = GroupSpec.deserialize(group)
    points = list(zip(*dom.bases()))      # the member bases of each point
    targets = [[vector_set(dom.field, W) for W in pt] for pt in points]
    for g in elements(spec):
        [pi] = induced_rows(dom, [g])
        for i, pt in enumerate(points):
            assert image_sets(dom.field, g, pt) == targets[pi[i]]


def test_empty_domain_induces_a_group_of_degree_zero():
    # a symplectic form has no non-degenerate 1-spaces
    dom = build_domain({"kind": "nondegenerate_k", "form": "symplectic",
                        "d": 4, "q": 3, "k": 1})
    G = build_group_action(GroupSpec("Sp", 4, 3), dom)
    assert (dom.N, G.degree, G.order()) == (0, 0, 1)


@pytest.mark.parametrize("action", [
    {"kind": "projective_points", "d": 4, "q": 2},
    {"kind": "subspaces_k", "d": 4, "q": 2, "k": 3},
])
def test_duality_off_the_middle_dimension_is_refused(action):
    # a duality carries k-spaces to (d-k)-spaces, whose rows have another width
    dom = build_domain(action)
    iota = elements(GroupSpec("GL", 4, 2, extensions=("dual",)))[-2]
    assert iota[2]
    with pytest.raises(ActionError, match="not in the domain"):
        induced_rows(dom, [iota])


@pytest.mark.parametrize("group,action", [
    ({"family": "Sp", "d": 4, "q": 2}, {"kind": "quad_forms_plus", "m": 2, "q": 2}),
    ({"family": "Sp", "d": 2, "q": 8, "extensions": ["frob"]},
     {"kind": "quad_forms_minus", "m": 1, "q": 8}),
])
def test_induced_forms_match_theta_values(group, action):
    # theta_{a'}(v g) = theta_a(v)^sigma for every v, with a' the image of a
    dom = build_domain(action)
    F = dom.field
    vs = list(itertools.product(range(F.q), repeat=dom.d))
    for g in elements(GroupSpec.deserialize(group)):
        [pi] = induced_rows(dom, [g])
        for i, a in enumerate(dom.codes):
            img = dom.codes[pi[i]]
            for v in vs:
                assert theta_value(dom, img, move(F, g, v)) == \
                    int(F.frob(theta_value(dom, a, v), g[1]))


def is_rref(R):
    """Nonzero rows first, pivots strictly increasing, each pivot 1 and
    alone in its column."""
    rows = [r for r in R if r.any()]
    if any(r.any() for r in R[len(rows):]):
        return False
    pivots = [int(np.flatnonzero(r)[0]) for r in rows]
    return (pivots == sorted(set(pivots))
            and all(r[p] == 1 and np.count_nonzero(R[:, p]) == 1
                    for r, p in zip(rows, pivots)))


@st.composite
def mixed_rank_stack(draw):
    """A stack of matrices whose rows are random, zero, or combinations of
    earlier rows, so that every rank up to min(m, d) turns up."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    F = field_of_order(q)
    m, d = draw(st.integers(0, 3)), draw(st.integers(1, 5))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        rows = []
        for _ in range(m):
            how = draw(st.sampled_from(["random", "zero", "combination"]))
            v = np.zeros(d, dtype=np.int64)
            if how == "random":
                v = np.array(draw(st.lists(st.integers(0, q - 1), min_size=d,
                                           max_size=d)), dtype=np.int64)
            elif how == "combination":
                for r in rows:
                    v = F.add(v, F.mul(draw(st.integers(0, q - 1)), r))
            rows.append(v)
        stack.append(np.array(rows, dtype=np.int64).reshape(m, d))
    return F, np.array(stack, dtype=np.int64).reshape(len(stack), m, d)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=mixed_rank_stack())
def test_rref_stack_and_kernel_against_vector_sets(case):
    F, S = case
    d = S.shape[2]
    R = rref_stack(F, S)
    assert R.shape == S.shape
    for A, B in zip(S, R):
        assert is_rref(B)
        assert vector_set(F, B) == vector_set(F, A)
        K = annihilator(F, rref(F, A)[0][None])[0]
        assert vector_set(F, K) == annihilator_set(F, list(map(tuple, A)), d)
