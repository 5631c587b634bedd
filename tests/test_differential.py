"""Differential checks against independent oracles.

Stabilizer chains against sympy.combinatorics on seeded random groups,
and level by level against a sequential Schreier-Sims reference on those
groups and on the tested actions, and every induced generator of the
tested actions against its image recomputed one point at a time.
"""

import random

import numpy as np
import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from conftest import ACTIONS, action_group, generator_triples, sequential_chain
from ibiskit import actions, linalg, perm
from ibiskit.actions import _act_forms, build_domain, induce_images
from ibiskit.groups import GroupSpec, classical_generators
from ibiskit.perm import PermGroup


def _random_group(seed):
    """(degree, generator image lists) of a seeded random group: degree
    12-60, 2-6 generators, acting within a random partition of the points
    into blocks of 2-8.  Seeds 0 mod 3 give direct products (generators on
    disjoint blocks), 1 mod 3 subdirect products of the blocks' groups,
    and 2 mod 3 add a swap of two blocks of equal size."""
    rng = random.Random(seed)
    n, k = rng.randint(12, 60), rng.randint(2, 6)
    points = rng.sample(range(n), n)
    blocks = []
    while points:
        m = min(len(points), rng.randint(2, 8))
        blocks.append(points[:m])
        points = points[m:]
    gens = []
    for j in range(k):
        img = list(range(n))
        for i, b in enumerate(blocks):
            if seed % 3 == 0 and i % k != j:
                continue
            for x, y in zip(b, rng.sample(b, len(b))):
                img[x] = y
        same = [b for b in blocks if len(b) == len(blocks[0])]
        if seed % 3 == 2 and j == 0 and len(same) > 1:
            for x, y in zip(same[0], same[1]):
                img[x], img[y] = img[y], img[x]
        gens.append(img)
    return n, gens


@pytest.mark.parametrize("seed", range(12))
def test_orders_match_sympy(seed):
    n, gens = _random_group(seed)
    G = PermGroup(n, gens)
    S = SympyGroup([SympyPermutation(g) for g in gens])
    assert G.order() == S.order()
    # with no random warm-up the Schreier closure builds the whole chain
    assert perm._Chain(n, G.generators, rattle=0).order() == S.order()
    rng = random.Random(seed)
    for p in rng.sample(range(n), 3):
        assert G.pointwise_stabilizer((p,)).order() == S.stabilizer(p).order()
    for length in (1, 2, 4):
        points = rng.sample(range(n), length)
        assert G.chain_orders(points) == [
            S.pointwise_stabilizer(points[:i]).order() if i else S.order()
            for i in range(length + 1)]


def test_closure_passes_levels_without_generators():
    # the cyclic group is regular, so the level of the second base point
    # gets no strong generator
    G = PermGroup(5, [[1, 2, 3, 4, 0]])
    assert perm._Chain(5, G.generators, base_prefix=(0, 1), rattle=0).order() == 5


def _levels(ch):
    """Each level's base point and strong generators, as bytes."""
    return [(lvl.beta, [g.tobytes() for g in lvl.gens]) for lvl in ch.levels]


def _reference_levels(degree, gens, **kw):
    return [(beta, [np.asarray(g, np.int32).tobytes() for g in level_gens])
            for beta, level_gens in sequential_chain(degree, gens, **kw)]


# the default random warm-up, and none, so that the closure installs
RATTLES = {"default": {}, "rattle0": {"rattle": 0}}


@pytest.mark.parametrize("rattle", sorted(RATTLES))
@pytest.mark.parametrize("seed", range(12))
def test_chain_matches_sequential_schreier_sims_on_random_groups(seed, rattle):
    n, gens = _random_group(seed)
    G = PermGroup(n, gens)
    assert _levels(perm._Chain(n, G.generators, **RATTLES[rattle])) \
        == _reference_levels(n, G.generators, **RATTLES[rattle])


@pytest.mark.parametrize("rattle", sorted(RATTLES))
@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_chain_matches_sequential_schreier_sims_on_actions(name, rattle):
    G = action_group(name)
    assert _levels(perm._Chain(G.degree, G.generators, **RATTLES[rattle])) \
        == _reference_levels(G.degree, G.generators, **RATTLES[rattle])


def _image_index(g, dom, i):
    """The index of the image of point i under the triple g = (M, k, dual),
    from that point alone: the RREF of each member's basis times g (and,
    for a duality, the annihilators, the members swapped); for the forms
    domain the parameter that _act_forms gives for g alone."""
    F = dom.field
    M, k, dual = g
    if not dom.dims:
        return dom.index_of(_act_forms(dom, M[None], k)[0, i])
    images = [linalg.rref(F, linalg.mat_mul(F, F.frob(B[i], k), M))[0]
              for B in dom.bases()]
    if dual:
        images = [linalg.annihilator(F, R[None])[0] for R in images[::-1]]
    return dom.index_of(np.vstack(images))


INDUCTION_CASES = dict(ACTIONS, **{
    "SL3(4).frob proj21": ({"family": "SL", "d": 3, "q": 4, "extensions": ["frob"]},
                           {"kind": "projective_points", "d": 3, "q": 4}),
    "SU4(2) iso-lines": ({"family": "SU", "d": 4, "q": 2},
                         {"kind": "totally_singular_k", "form": "hermitian",
                          "d": 4, "q": 2, "k": 2}),
})


@pytest.mark.parametrize("name", sorted(INDUCTION_CASES))
def test_induced_generators_match_pointwise_images(monkeypatch, name):
    gdesc, adesc = INDUCTION_CASES[name]
    dom = build_domain(adesc)
    spec = GroupSpec.deserialize(gdesc)
    socle, _ = classical_generators(spec)
    gens = generator_triples(spec)
    rows = np.concatenate([induce_images(socle, 0, False, dom)]
                          + [induce_images(M[None], k, dual, dom)
                             for M, k, dual in gens[len(socle):]])
    rng = random.Random(name)
    points = rng.sample(range(dom.N), min(dom.N, 12))
    for g, row in zip(gens, rows, strict=True):
        assert [row[i] for i in points] == [_image_index(g, dom, i) for i in points]
    # one element per stack induces the same permutations
    monkeypatch.setattr(actions, "INDUCE_CODES", 1)
    assert np.array_equal(induce_images(socle, 0, False, dom), rows[:len(socle)])
