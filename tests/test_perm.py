import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ACTIONS, action_group, element_table, orbit_lists
from ibiskit import perm
from ibiskit.perm import PermError, PermGroup, derived_subgroup
from oracles import fresh_stabilizer


def perm_from_cycles(n, *cycles):
    img = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:]):
            img[a] = b
        img[cyc[-1]] = cyc[0]
    return np.array(img, dtype=np.int32)


def sym(n):
    return PermGroup(n, [perm_from_cycles(n, (0, 1)), perm_from_cycles(n, tuple(range(n)))])


def cyclic(n):
    return PermGroup(n, [perm_from_cycles(n, tuple(range(n)))])


def test_permutation_validation():
    # every generator row must permute [0, N)
    for rows in ([[0, 0, 1]], [[0, 1, 2, 3]], [[0, 1, 2], [0, 1]], [0, 1, 2],
                 [[[0, 1, 2]]]):
        with pytest.raises(PermError):
            PermGroup(3, rows)
    # the identity and repeats drop out; the rest keep their first order
    p = perm_from_cycles(4, (0, 1, 2))
    G = PermGroup(4, [p, np.arange(4), p[p], p])
    assert G.generators.dtype == np.int32 and not G.generators.flags.writeable
    assert np.array_equal(G.generators, [p, p[p]])
    assert np.array_equal(p[p[p]], np.arange(4))
    assert PermGroup(4, []).generators.shape == (0, 4)


def test_composition_order():
    # rows compose by indexing: q[p] applies p, then q
    p = perm_from_cycles(3, (0, 1))
    q = perm_from_cycles(3, (1, 2))
    assert q[p][0] == 2
    assert p[q][0] == 1


def test_orbit_trivial_group():
    G = PermGroup(5, [])
    assert G.orbits().tolist() == [0, 1, 2, 3, 4]
    # and degree 0, with and without generator rows
    assert PermGroup(0, []).orbits().tolist() == []
    assert PermGroup(0, np.zeros((2, 0), np.int32)).orbits().tolist() == []


def test_orbit_transitive_and_words():
    assert sym(6).orbits().tolist() == [0] * 6


def reference_labels(G):
    """The least point of each point's orbit, from the breadth-first walk."""
    lab = np.empty(G.degree, dtype=int)
    for ob in orbit_lists(G):
        lab[ob] = ob[0]
    return lab


@st.composite
def random_groups(draw, max_degree=40):
    """A group of degree 0..max_degree whose generators act on one to four
    blocks of points, each block by a random permutation, a rotation or
    not at all, so that groups with several orbits turn up."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(0, max_degree)
    points = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), min(max(n - 1, 0), rng.randint(0, 3))))
    blocks = [points[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    gens = []
    for _ in range(rng.randint(0, 3)):
        g = list(range(n))
        for block in blocks:
            kind = rng.randrange(3)
            images = (rng.sample(block, len(block)) if kind == 1
                      else block[1:] + block[:1] if kind == 2 else block)
            for x, y in zip(block, images):
                g[x] = y
        gens.append(g)
    return PermGroup(n, gens)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(G=random_groups())
def test_orbit_labels_match_the_walk_on_random_groups(G):
    lab = G.orbits()
    assert lab.shape == (G.degree,)
    assert lab.tolist() == reference_labels(G).tolist()


@pytest.mark.parametrize("name", list(ACTIONS))
def test_orbit_labels_match_the_walk_on_the_actions(name):
    G = action_group(name)
    assert G.orbits().tolist() == reference_labels(G).tolist()


@pytest.mark.parametrize("shift", [1, -1])
def test_orbit_labels_of_one_long_cycle(shift):
    # one cycle as long as the degree cap allows, and then two fixed
    # points and a transposition
    n = perm.DEGREE_CAP - 4
    cycle = np.roll(np.arange(n), shift)
    assert PermGroup(n, [cycle]).orbits().tolist() == [0] * n
    G = PermGroup(n + 4, [np.append(cycle, [n, n + 1, n + 3, n + 2])])
    assert G.orbits().tolist() == [0] * n + [n, n + 1, n + 2, n + 2]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(G=random_groups(max_degree=10), data=st.data())
def test_pointwise_stabilizer_matches_the_per_point_loop(G, data):
    # the one-point steps give the group that one chain built afresh at
    # the whole sequence gives, repeated points included
    seq = data.draw(st.lists(st.integers(0, max(G.degree - 1, 0)),
                             max_size=5 if G.degree else 0))
    if seq and data.draw(st.booleans()):
        seq.insert(data.draw(st.integers(0, len(seq))), seq[0])
    H, (ref, _) = G.pointwise_stabilizer(seq), fresh_stabilizer(G, seq)
    assert H.order() == ref.order()
    assert H.fixed_points().tolist() == ref.fixed_points().tolist()
    assert all(H.fixed_points()[p] for p in seq)
    if not seq:
        assert H is G


def test_symmetric_group_order():
    assert sym(5).order() == 120
    assert sym(7).order() == 5040


def test_alternating_via_derived():
    A = derived_subgroup(sym(5))
    assert A.order() == 60


def test_derived_abelian_trivial():
    assert derived_subgroup(cyclic(6)).order() == 1


def loop_derived_subgroup(G):
    """derived_subgroup one row at a time: the reference for its stacks."""
    def inv(g):
        return np.argsort(g).astype(np.int32)

    gens = list(G.generators)
    sub = PermGroup(G.degree, [b[a[inv(b)[inv(a)]]] for a in gens for b in gens])
    while True:
        new = [t for s in sub.generators for g in gens
               if not sub.is_member(t := g[s[inv(g)]])]
        if not new:
            return sub
        sub = PermGroup(G.degree, list(sub.generators) + new)


def test_derived_subgroup_matches_the_loop_version():
    rng = random.Random(5)
    groups = [sym(5), sym(6), cyclic(6)]
    for _ in range(6):
        n = rng.randrange(4, 9)
        groups.append(PermGroup(n, [rng.sample(range(n), n) for _ in range(3)]))
    for G in groups:
        assert np.array_equal(derived_subgroup(G).generators,
                              loop_derived_subgroup(G).generators)


def test_orbit_stabilizer_identity():
    rng = random.Random(4)
    for G in (sym(6), cyclic(8), derived_subgroup(sym(5))):
        for _ in range(3):
            pt = rng.randrange(G.degree)
            orbit_length = (G.orbits() == G.orbits()[pt]).sum()
            assert G.order() == orbit_length * G.pointwise_stabilizer((pt,)).order()


def test_regular_action_trivial_stabilizer():
    G = cyclic(7)
    assert G.pointwise_stabilizer((0,)).order() == 1


def test_membership_and_sifting():
    G = sym(5)
    rng = random.Random(7)
    # random products of up to 20 generators always sift to identity
    for _ in range(25):
        w = np.arange(5)
        for _ in range(rng.randrange(1, 21)):
            w = G.generators[rng.randrange(len(G.generators))][w]
        assert G.is_member(w)
    # an odd permutation is not in Alt(5)
    A = derived_subgroup(G)
    assert not A.is_member(perm_from_cycles(5, (0, 1)))
    assert A.is_member(np.arange(5))
    with pytest.raises(PermError):
        G.is_member(np.arange(6))


def test_pointwise_stabilizer_tuple_order_invariance():
    G = sym(7)
    rng = random.Random(12)
    for _ in range(5):
        pts = rng.sample(range(7), 3)
        A = G.pointwise_stabilizer(pts)
        B = G.pointwise_stabilizer(list(reversed(pts)))
        assert A.order() == B.order()
        for g in A.generators:
            assert B.is_member(g)


def test_chain_orders_with_redundant_prefix():
    G = sym(5)
    # repeating a point gives a flat (non-strictly-decreasing) step
    orders = G.chain_orders([0, 0, 1])
    assert orders == [120, 24, 24, 6]


def test_chain_orders_full_base():
    G = sym(5)
    assert G.chain_orders([0, 1, 2, 3]) == [120, 24, 6, 2, 1]


def test_element_table():
    G = sym(5)
    table = element_table(G)
    assert table.shape == (120, 5)
    assert len({r.tobytes() for r in table}) == 120
    A = derived_subgroup(sym(5))
    assert element_table(A).shape == (60, 5)


def test_element_table_cap():
    G = sym(9)
    with pytest.raises(PermError):
        element_table(G, cap=1000)


def test_serialize_roundtrip():
    G = sym(4)
    data = G.serialize()
    assert data["order"] == "24"
    H = PermGroup(data["degree"], data["generators"])
    assert H.order() == 24


def test_bsgs_order_matches_closure_on_random_groups():
    # the verified chain and a plain breadth-first closure must agree on
    # the order for arbitrary small generator sets
    rng = random.Random(31)
    for trial in range(25):
        n = rng.randrange(4, 9)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(img)
        G = PermGroup(n, gens)
        table = element_table(G)  # closure; asserts against chain order
        assert len(table) == G.order()


def test_stabilizer_of_bsgs_group_is_exact():
    rng = random.Random(32)
    for trial in range(10):
        n = rng.randrange(5, 9)
        img = list(range(n))
        rng.shuffle(img)
        G = PermGroup(n, [img, perm_from_cycles(n, (0, 1, 2))])
        pt = rng.randrange(n)
        H = G.pointwise_stabilizer((pt,))
        table = element_table(G)
        brute = sum(1 for row in table if row[pt] == pt)
        assert H.order() == brute


def test_orders_against_independent_library():
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(41)
    for trial in range(12):
        n = rng.randrange(5, 11)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(img)
        ours = PermGroup(n, gens).order()
        theirs = sympy_comb.PermutationGroup(
            [sympy_comb.Permutation(g) for g in gens]).order()
        assert ours == theirs


def test_acceptance_group_order_against_independent_library():
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    import sys
    sys.path.insert(0, "tests")
    from conftest import named_case
    for name in ("PSp4_3/proj40", "Om6p2/ns28"):
        G, _ = named_case(name)
        theirs = sympy_comb.PermutationGroup(
            [sympy_comb.Permutation(g) for g in G.generators.tolist()]).order()
        assert G.order() == theirs


def test_mathieu_style_bigger_group():
    # PGL_2(9)-sized sanity: a sharply 3-transitive-like degree-10 group
    # built from explicit cycles of PGL_2(9) acting on the projective line
    a = perm_from_cycles(10, tuple(range(9)))          # x -> x+1 on AG(1,9)+inf
    rng = random.Random(1)
    # fallback: just check a transitive subgroup's orbit-stabilizer identity
    G = PermGroup(10, [a, perm_from_cycles(10, (0, 9))])
    n = G.order()
    assert n == (G.orbits() == 0).sum() * G.pointwise_stabilizer((0,)).order()


def transversal(lvl, degree, row):
    """The transversal element of a level's row, composed along its
    Schreier tree from beta: u = g u', u' the parent's, g the edge's."""
    path = []
    while row:
        path.append(row)
        row = lvl.parent[row]
    u = np.arange(degree)
    for r in reversed(path):
        u = lvl.gens[lvl.label[r]][u]
    return u


def check_inverse_rows(ch, seed):
    """Read every inverse row of fresh copies of the chain's levels,
    shuffled and deepest first, against the inverted transversals."""
    rng = random.Random(seed)
    for lvl in ch.levels:
        fresh = perm._Level(lvl.beta, ch.degree)
        for g in lvl.gens:
            fresh.add_generator(g, g.tolist())
        assert fresh.points == lvl.points and fresh.parent == lvl.parent
        assert list(fresh.inv) == [0]
        depth = [0] * len(fresh.points)
        for r in range(1, len(depth)):
            depth[r] = depth[fresh.parent[r]] + 1
        rows = list(range(len(depth)))
        rng.shuffle(rows)
        for r in sorted(rows, key=lambda r: -depth[r]):
            u = transversal(fresh, ch.degree, r)
            assert u[lvl.beta] == lvl.points[r]
            assert fresh.inverse(r).dtype == np.int32
            assert fresh.inverse(r).tolist() == np.argsort(u).tolist()
        assert sorted(fresh.inv) == list(range(len(depth)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(G=random_groups())
def test_inverse_rows_match_the_inverted_transversals_on_random_groups(G):
    check_inverse_rows(perm._Chain(G.degree, G.generators), G.degree)


def test_inverse_rows_of_the_complement_pairs():
    G = action_group("SL3(4).2 pairs336")
    check_inverse_rows(perm._Chain(G.degree, G.generators, rattle=0), 336)
    # reaching the order target, the chain built only the rows it sifted by
    lvl = perm._Chain(G.degree, G.generators, known_order=G.order()).levels[0]
    assert 1 <= len(lvl.inv) < len(lvl.points) == 336


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(G=random_groups(), data=st.data())
def test_inherited_stabilizers_match_fresh_chains_on_random_groups(G, data):
    # a one-point step takes the levels below the first of G's chain, as
    # they are at its base point and conjugated elsewhere in its first
    # basic orbit, or reads a chain based at the point; at every orbit
    # minimum and every point of that orbit it gives the group a fresh
    # chain based at the point gives, and keeps a certified chain of it
    levels = G.chain().levels
    first = levels[0].points if levels else []
    minima = np.flatnonzero(G.orbits() == np.arange(G.degree)).tolist()
    for p in sorted(set(minima) | set(first)):
        H, (ref, orders) = G.pointwise_stabilizer((p,)), fresh_stabilizer(G, (p,))
        assert orders == [G.order(), H.order()] and ref.order() == H.order()
        assert H.fixed_points().tolist() == ref.fixed_points().tolist()
        strong = [g for lvl in H.chain().levels for g in lvl.gens]
        assert all(g[p] == p for g in strong)
        assert all(H.is_member(g) for g in ref.generators)
        assert all(ref.is_member(g) for g in H.generators)
        if p in first[1:]:          # the conjugated levels, and their rows
            check_inverse_rows(H.chain(), p)
            for lvl in H.chain().levels:
                for r in range(len(lvl.points)):
                    u = transversal(lvl, G.degree, r)
                    assert u[lvl.beta] == lvl.points[r]
                    assert lvl.inverse(r).tolist() == np.argsort(u).tolist()
    # steps along a sequence, each from the chain the last one kept
    seq = data.draw(st.lists(st.integers(0, max(G.degree - 1, 0)),
                             max_size=4 if G.degree else 0))
    H, ref, orders = G.pointwise_stabilizer(seq), *fresh_stabilizer(G, seq)
    assert G.chain_orders(seq) == orders and H.order() == orders[-1]
    assert H.fixed_points().tolist() == ref.fixed_points().tolist()
    assert all(H.is_member(g) for g in ref.generators)
    assert all(ref.is_member(g) for g in H.generators)


# The tracemalloc peak of one chain build with no order target, in MiB,
# measured before the closure kept its transversals as tables: a build
# may take half as much again, but not a second store of them.  The
# sequential closure holds one Schreier generator at a time, and peaks
# at 0.66 and 0.22 MiB on these.
CHAIN_PEAK_MIB = {"SL3(4).2 pairs336": 1.47, "Sp4(4) forms136": 0.77}


@pytest.mark.parametrize("name", sorted(CHAIN_PEAK_MIB))
def test_chain_build_peak_memory_is_bounded(name):
    G = action_group(name)
    perm._Chain(G.degree, G.generators)   # one-time allocations stay out
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        perm._Chain(G.degree, G.generators)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.5 * CHAIN_PEAK_MIB[name] * 2**20, peak / 2**20
