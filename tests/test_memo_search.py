"""The memoised searches against their plain oracles, and certified
length sets in the paper's regime of base size >= 6."""

import contextlib
import functools
import gc
import hashlib
import itertools
import json
import math
import random
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    ACTIONS, action_group as group, named_case, plain_enumeration,
    plain_minimal_base_sizes, recording_stabilizer_keys, unpruned_enumeration,
)
from ibiskit.actions import build_domain, build_group_action
from ibiskit.groups import GroupSpec
from ibiskit import ibis
from ibiskit.ibis import (
    DEFAULT_BUDGET, _key, _Stabilizers, base_report, decide_ibis,
    enumerate_irredundant_base_sizes, is_base, minimal_base_sizes,
)
from ibiskit.perm import PermGroup


@pytest.mark.parametrize("name", list(ACTIONS))
def test_memoised_enumeration_matches_plain(monkeypatch, name):
    # and the memoised search builds one chain per stabilizer the plain
    # search reaches, never a second for a stabilizer it holds
    G = group(name)
    keys = recording_stabilizer_keys(monkeypatch)
    memo = enumerate_irredundant_base_sizes(G)
    memo_keys = list(keys)
    keys.clear()
    plain = plain_enumeration(G)
    assert memo.complete and plain.complete
    assert memo.lengths == plain.lengths
    assert memo.witnesses == plain.witnesses
    assert memo.nodes <= plain.nodes
    assert len(set(memo_keys)) == len(memo_keys)
    assert set(memo_keys) == set(keys)


@functools.lru_cache(maxsize=None)
def plain_minimal_sizes(name):
    """The plain oracle's minimal-base sizes of a named case, computed
    once."""
    return plain_minimal_base_sizes(named_case(name)[0])


@pytest.mark.parametrize("name", ["GL4_2/sub35", "PSp4_3/proj40"])
def test_minimal_base_sizes_match_plain(name):
    G, _ = named_case(name)
    res = minimal_base_sizes(G)
    plain = plain_minimal_sizes(name)
    assert res.complete and plain.complete
    assert res.lengths == plain.lengths


@pytest.mark.parametrize("budget", [0, 1, 100])
def test_minimal_base_sizes_match_plain_within_a_budget(budget):
    # a search cut short finds some of the plain oracle's sizes, and is
    # complete exactly when the budget covers it
    G, _ = named_case("GL4_2/sub35")
    res = minimal_base_sizes(G, node_budget=budget)
    assert res.complete == (res.nodes <= budget)
    assert res.lengths <= plain_minimal_sizes("GL4_2/sub35").lengths


def test_minimal_base_sizes_budget_before_the_first_step(monkeypatch):
    # node_budget=0 expands no node, so no stabilizer chain is built
    G, _ = named_case("GL4_2/sub35")
    keys = recording_stabilizer_keys(monkeypatch)
    res = minimal_base_sizes(G, node_budget=0)
    assert keys == [] and not res.complete and res.lengths == frozenset()
    res = minimal_base_sizes(G, node_budget=1)
    assert len(keys) == 1 and not res.complete


@st.composite
def small_group_and_budget(draw):
    """A permutation group of degree <= 10 and a budget, the full one or
    a small one.  The points fall into one to three blocks, so the group
    is often intransitive.  A generator acts on each block trivially, by
    a random permutation, a rotation or a random involution, so small
    dihedral-like and diagonal groups turn up as well as symmetric ones.
    The seed is drawn and the group built from it, so that shrinking
    does not turn most draws into trivial groups."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(2, 10)
    points = list(range(n))
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
    blocks = [points[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = list(range(n))
        for block in blocks:
            kind = rng.randrange(4)
            if kind == 1:
                images = rng.sample(block, len(block))
            elif kind == 2:
                shift = rng.randrange(len(block))
                images = block[shift:] + block[:shift]
            else:
                images = list(block)
            if kind == 3:
                moved = rng.sample(block, 2 * rng.randint(0, len(block) // 2))
                for x, y in zip(moved[::2], moved[1::2]):
                    images[block.index(x)], images[block.index(y)] = y, x
            for x, y in zip(block, images):
                g[x] = y
        gens.append(g)
    budget = draw(st.one_of(st.just(DEFAULT_BUDGET), st.integers(0, 60)))
    return PermGroup(n, gens), budget


def minimal_base_sizes_by_subsets(G):
    """Sizes of the bases no proper subset of which is a base, over all
    point subsets."""
    bases = {frozenset(S) for k in range(G.degree + 1)
             for S in itertools.combinations(range(G.degree), k)
             if is_base(G, S)}
    return frozenset(len(S) for S in bases
                     if all(S - {x} not in bases for x in S))


# the Klein four-group on two swapped pairs and regularly on four points:
# its minimal bases are one regular point, or one point of each pair
KLEIN_TWO_SIZES = PermGroup(8, [[1, 0, 2, 3, 5, 4, 7, 6],
                                [0, 1, 3, 2, 6, 7, 4, 5]])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=small_group_and_budget())
@example(case=(KLEIN_TWO_SIZES, DEFAULT_BUDGET))
@example(case=(KLEIN_TWO_SIZES, 3))
def test_minimal_base_sizes_match_plain_on_random_groups(case):
    G, budget = case
    res = minimal_base_sizes(G, node_budget=budget)
    plain = plain_minimal_base_sizes(G)
    assert plain.complete
    assert res.complete == (res.nodes <= budget)
    assert res.lengths <= plain.lengths
    if res.complete:
        assert res.lengths == plain.lengths
        if G.degree <= 8:
            assert res.lengths == minimal_base_sizes_by_subsets(G)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=small_group_and_budget())
@example(case=(KLEIN_TWO_SIZES, DEFAULT_BUDGET))
@example(case=(KLEIN_TWO_SIZES, 2))
def test_enumeration_matches_plain_on_random_groups(case):
    G, budget = case
    memo = enumerate_irredundant_base_sizes(G, node_budget=budget)
    assert memo.complete == (memo.nodes <= budget)
    for length, chain in memo.witnesses.items():
        rep = base_report(G, chain)
        assert len(rep) == length and rep.is_base and rep.is_irredundant
    if memo.complete:
        plain = plain_enumeration(G)
        assert (memo.lengths, memo.witnesses) == (plain.lengths, plain.witnesses)
        assert memo.nodes <= plain.nodes
        if G.degree <= 8:
            assert memo.lengths == unpruned_enumeration(G).lengths


@contextlib.contextmanager
def checked_store_lookups():
    """While active, every id that the store's find(H, k, p, ...) returns
    is checked against H_p built afresh: its key must be the fresh
    group's fixed points, and its order the fresh group's order.  Yields
    the set of (store, id, point, returned id) checked."""
    checked = set()
    find = _Stabilizers.find

    def checking(store, H, k, p, orbit_length):
        j, Hp = find(store, H, k, p, orbit_length)
        if (store, k, p, j) not in checked:
            checked.add((store, k, p, j))
            fresh = H.pointwise_stabilizer((p,))
            assert store.keys[j] == _key(fresh.fixed_points())
            assert store.orders[j] == fresh.order()
        return j, Hp

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Stabilizers, "find", checking)
        yield checked


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=small_group_and_budget())
@example(case=(KLEIN_TWO_SIZES, DEFAULT_BUDGET))
def test_store_lookups_on_random_groups(case):
    G, _ = case
    with checked_store_lookups():
        enumerate_irredundant_base_sizes(G)
        minimal_base_sizes(G)


@pytest.mark.parametrize("name", list(ACTIONS))
def test_store_lookups_on_actions(name):
    G = group(name)
    with checked_store_lookups() as checked:
        enumerate_irredundant_base_sizes(G)
        minimal_base_sizes(G)
    assert checked


@pytest.mark.parametrize("search", [
    enumerate_irredundant_base_sizes, minimal_base_sizes, decide_ibis,
    lambda G: enumerate_irredundant_base_sizes(G, node_budget=5)])
def test_search_frees_its_store_on_return(monkeypatch, search):
    # a search's store, with every stabilizer it kept, is freed when the
    # search returns, with no help from the cyclic collector
    stores = []

    class Recorded(_Stabilizers):
        def __init__(self, G):
            super().__init__(G)
            stores.append(weakref.ref(self))

    monkeypatch.setattr(ibis, "_Stabilizers", Recorded)
    G = group("GL4(2) sub35")
    enabled = gc.isenabled()
    gc.disable()
    try:
        search(G)
        assert len(stores) == 1 and stores[0]() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("budget", [0, 1, 100, 1000])
def test_budgeted_enumeration_sp44(budget):
    # a subtree cut short by the budget must not be kept as if it were
    # complete: the search is complete exactly when the budget covers it
    G = group("Sp4(4) forms136")
    full = enumerate_irredundant_base_sizes(G)
    res = enumerate_irredundant_base_sizes(G, node_budget=budget)
    assert res.lengths <= full.lengths == {4, 5}
    assert res.complete == (res.nodes <= budget) == (full.nodes <= budget)
    for length, chain in res.witnesses.items():
        rep = base_report(G, chain)
        assert len(rep) == length and rep.is_base and rep.is_irredundant


# -- pinned minimal-base searches ---------------------------------------------

MINIMAL_BUDGETS = (0, 1, 5, 37, 100, 1000)

# sha256 of the minimal-base search's [sorted sizes, complete, nodes] at
# each of MINIMAL_BUDGETS, on the search actions, the table rows and the
# named cases.  Recorded before minimal_base_sizes read independence
# from stabilizer orders, which changed none of them.
MINIMAL_SHA256 = {
    "SL3(4).2 pairs336":
        "0b60c53f151560b7d710ee2bee0d566c85fe6fa40cf74b3da5950d3fafd03871",
    "PSL4(3) proj40":
        "f4344e6e0238fad570ae032344abeb631736902965e3a887fcf5d063b9eda4f7",
    "PSp4(3) proj40":
        "77d1c0f97e56dfeb134080877b9ebd813205a15a757fd884acb8f21a6f888683",
    "GL4(2) sub35":
        "45f7635ca4b474c025d1a592782e021f2201a7cae2b0a8fbd1d778fb8ecf1f5e",
    "Sp4(4) forms136":
        "dcac4c64b59c748b3cda70f6f39652bbe37eb5594ac818ecd1986015f750a2ea",
    "SL3(2) proj":
        "1f78e85f8074533dd8e1e5fb1887038d2a6ecf130cd7a08d5bbd9845e689c70f",
    "SL4(2) proj":
        "82127371bb7c8349c4b3755bab6fc3f67981565334b3b92afa2414a50a07fd4c",
    "Sp4(2) vectors":
        "5025d76ca18d8c902346291467eb4f91d52fc61b0a4d8e9baccc2a796d14376c",
    "Sp4(2)' vectors":
        "a98fc01871b151a570ecdb0ad16e40d510d6d7ef2960a22e8e0a3d6aaaaa7575",
    "PGL2(5) line":
        "1f78e85f8074533dd8e1e5fb1887038d2a6ecf130cd7a08d5bbd9845e689c70f",
    "SL2(4) minus":
        "9d8c1abb19996ccf602fdd1a6220e8bdfee69a378fd0576caf3ac1b8b937af01",
    "SL2(8) minus":
        "9ee83f5effb959ee9181bd7582791be8c753cda42e5ceb1fa5e18b22a2eade1d",
    "Om4+(4) ns1":
        "9c2905f45c21305902dbf1a1d5179e0b1d94e559351dc7458a836e93aef74f7a",
    "Om4-(4) ns1":
        "e4b3e24c8becf0908865fcee662a7258468d7df803dad33287eece0d99a8f7b9",
    "SL3_2/proj7":
        "1f78e85f8074533dd8e1e5fb1887038d2a6ecf130cd7a08d5bbd9845e689c70f",
    "SL4_2/proj15":
        "82127371bb7c8349c4b3755bab6fc3f67981565334b3b92afa2414a50a07fd4c",
    "Sp4_2/vec15":
        "5025d76ca18d8c902346291467eb4f91d52fc61b0a4d8e9baccc2a796d14376c",
    "Sp4_2'/vec15":
        "a98fc01871b151a570ecdb0ad16e40d510d6d7ef2960a22e8e0a3d6aaaaa7575",
    "PGL2_5/proj6":
        "1f78e85f8074533dd8e1e5fb1887038d2a6ecf130cd7a08d5bbd9845e689c70f",
    "SL2_4/minus6":
        "9d8c1abb19996ccf602fdd1a6220e8bdfee69a378fd0576caf3ac1b8b937af01",
    "SL2_8/minus28":
        "9ee83f5effb959ee9181bd7582791be8c753cda42e5ceb1fa5e18b22a2eade1d",
    "PSp4_3/proj40":
        "77d1c0f97e56dfeb134080877b9ebd813205a15a757fd884acb8f21a6f888683",
    "PSp4_3/lines40":
        "f7eb344fe7b8d3f8614a80c926b5d586629522cc41177d92c320a3ed1fbf04fa",
    "GL4_2/sub35":
        "45f7635ca4b474c025d1a592782e021f2201a7cae2b0a8fbd1d778fb8ecf1f5e",
    "PSL3_3/proj13":
        "ce449af827169d72076cdcabcb8f63ebbf25ed2d8e59e9e06a66995e9edc17b4",
    "PSL4_3/proj40":
        "f4344e6e0238fad570ae032344abeb631736902965e3a887fcf5d063b9eda4f7",
    "AutPSL2_4/proj5":
        "82127371bb7c8349c4b3755bab6fc3f67981565334b3b92afa2414a50a07fd4c",
    "Om4p4/ns60":
        "9c2905f45c21305902dbf1a1d5179e0b1d94e559351dc7458a836e93aef74f7a",
    "Om4m4/ns68":
        "e4b3e24c8becf0908865fcee662a7258468d7df803dad33287eece0d99a8f7b9",
    "SO4p4/ns60":
        "d2039eba1bb799166aaca254bb6c7198bdaf7ae7bdd1d3e3411ecebfc704948c",
    "SO4m4/ns68":
        "52e4559d7b4d950fec78d696841a466f932ccba0a9432045361a929cc28408c4",
    "Om6p2/ns28":
        "9fe937cf13623fbeef3a0959adf16110ea64e33166c69823e187b588c8c6da94",
    "SO6p2/ns28":
        "0ca594a50a027ae40dccfd75b39948e343ffccfebd87dfbd58e222101ae6f7f1",
    "Sp4_2/omega_plus10":
        "4fbaed7aac84e81dd50d2c5d35dca9b0eac0801be47ec3a4c371eb0480186af0",
    "Sp4_2'/omega_plus10":
        "9d8c1abb19996ccf602fdd1a6220e8bdfee69a378fd0576caf3ac1b8b937af01",
    "Sp4_2/omega_minus6":
        "35518db182421826333a2e3b89f25899644985d9bd0be32d876336324e386db8",
    "Sp4_4/omega_plus136":
        "dcac4c64b59c748b3cda70f6f39652bbe37eb5594ac818ecd1986015f750a2ea",
    "PSU3_2/iso9":
        "90a2675f21ee6a778d785d0db80f4accaad813681bca7ffe84373cc5e77ce07a",
}


@pytest.mark.parametrize("name", list(MINIMAL_SHA256))
def test_minimal_search_outputs_pinned(name):
    G = group(name) if name in ACTIONS else named_case(name)[0]
    outs = []
    for budget in MINIMAL_BUDGETS:
        res = minimal_base_sizes(G, node_budget=budget)
        outs.append([sorted(res.lengths), res.complete, res.nodes])
    digest = hashlib.sha256(json.dumps(outs).encode()).hexdigest()
    assert digest == MINIMAL_SHA256[name]


def independent_sets(G, cap):
    """Up to cap independent point sets of G (each member moved by the
    stabilizer of the others), the empty set first, grown depth first by
    ascending points."""
    out = []

    def grow(S):
        out.append(S)
        moved = ~G.pointwise_stabilizer(S).fixed_points()
        for p in range(max(S, default=-1) + 1, G.degree):
            if len(out) >= cap:
                return
            T = S + (p,)
            if moved[p] and all(
                    not G.pointwise_stabilizer(T[:i] + T[i + 1:]).fixed_points()[T[i]]
                    for i in range(len(S))):
                grow(T)

    grow(())
    return out


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=small_group_and_budget())
@example(case=(KLEIN_TWO_SIZES, DEFAULT_BUDGET))
def test_independence_read_from_orders_on_random_groups(case):
    # for an independent S, s in S and p moved by G_(S): G_(S - s + p)
    # contains G_(S + p), and equals it exactly when it fixes s, so it
    # fixes s exactly when the two orders agree (in KLEIN_TWO_SIZES, a
    # regular point p fixes the point s of a pair)
    G, _ = case
    for S in independent_sets(G, 16):
        moved = ~G.pointwise_stabilizer(S).fixed_points()
        for p in map(int, moved.nonzero()[0]):
            order = G.pointwise_stabilizer(S + (p,)).order()
            for i, s in enumerate(S):
                K = G.pointwise_stabilizer(S[:i] + S[i + 1:] + (p,))
                assert bool(K.fixed_points()[s]) == (K.order() == order)


def counting_lookups(G, budget):
    """The store lookups (find calls) of minimal_base_sizes(G, budget)."""
    calls = 0
    find = _Stabilizers.find

    def counted(*args):
        nonlocal calls
        calls += 1
        return find(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Stabilizers, "find", counted)
        minimal_base_sizes(G, node_budget=budget)
    return calls


def test_minimal_search_steps_only_for_independent_extensions():
    # a stabilizer step per leave-one-out id for every candidate made 880
    # lookups on GL4(2)/35 and 1,504 on OmegaMinus(6,4)/1365 in 1000
    # nodes; stepping only for extensions the order test passes leaves
    # 276 and 48
    assert counting_lookups(group("GL4(2) sub35"), DEFAULT_BUDGET) <= 300
    dom = build_domain({"kind": "projective_points", "d": 6, "q": 4})
    G = build_group_action(GroupSpec("OmegaMinus", 6, 4), dom)
    assert G.degree == 1365
    assert counting_lookups(G, 1000) <= 100


# -- base size >= 6 ----------------------------------------------------------

def sp_order(m, q):
    """|Sp_2m(q)| = q^(m^2) prod_{i=1..m} (q^(2i) - 1)."""
    return q**(m * m) * math.prod(q**(2 * i) - 1 for i in range(1, m + 1))


def sl_order(d, q):
    """|SL_d(q)| = q^(d(d-1)/2) prod_{i=2..d} (q^i - 1)."""
    return q**(d * (d - 1) // 2) * math.prod(q**i - 1 for i in range(2, d + 1))


# Over GF(2) the centre is trivial, so each group acts faithfully on the
# (2^d - 1) points of PG(d - 1, 2).
REGIME = [
    ("Sp", 6, sp_order(3, 2), {6}),
    ("SL", 6, sl_order(6, 2), {6}),
    ("Sp", 8, sp_order(4, 2), {8}),
]


@functools.lru_cache(maxsize=None)
def point_action(family, d):
    dom = build_domain({"kind": "projective_points", "d": d, "q": 2})
    return build_group_action(GroupSpec(family, d, 2), dom)


@pytest.mark.parametrize("family,d,order,lengths", REGIME)
def test_base_size_at_least_six_certified(family, d, order, lengths):
    G = point_action(family, d)
    assert G.degree == 2**d - 1
    assert G.order() == order
    res = enumerate_irredundant_base_sizes(G, node_budget=DEFAULT_BUDGET)
    assert res.complete and res.lengths == lengths
    for length, chain in res.witnesses.items():
        rep = base_report(G, chain)
        assert len(rep) == length and rep.is_base and rep.is_irredundant


def test_sp62_points_against_plain_search():
    G = point_action("Sp", 6)
    assert G.order() == 1_451_520
    memo = enumerate_irredundant_base_sizes(G)
    plain = plain_enumeration(G)
    assert plain.complete and plain.nodes == 14_830
    assert memo.lengths == plain.lengths == {6}
    assert memo.witnesses == plain.witnesses
    assert memo.nodes < plain.nodes


# Over GF(2) a set of points of PG(d - 1, 2) is independent under SL_d(2),
# and under Sp_d(2), exactly when it is linearly independent: the
# transvections of G that fix a subspace W pointwise (for Sp, the t_v
# with v in W^perp) fix no point outside it, so fix(G_(W)) = W, and a
# point is redundant exactly when it lies in the span of the others.
# The minimal bases are the linear bases.
@pytest.mark.parametrize("family", ["SL", "Sp"])
def test_minimal_base_sizes_on_points_are_the_dimension(family):
    G = point_action(family, 6)
    res = minimal_base_sizes(G)
    assert res.complete and res.lengths == {6}


def test_minimal_base_sizes_sp62_minus_forms():
    # Sp6(2) on its 28 minus-type forms: the plain oracle confirms {6, 7}
    # (157,704 nodes, about 37 s, too slow to run here)
    dom = build_domain({"kind": "quad_forms_minus", "m": 3, "q": 2})
    G = build_group_action(GroupSpec("Sp", 6, 2), dom)
    assert G.degree == 28 and G.order() == sp_order(3, 2)
    res = minimal_base_sizes(G)
    assert res.complete and res.lengths == {6, 7}
    assert {6} <= res.lengths <= enumerate_irredundant_base_sizes(G).lengths


# The tracemalloc peak of the enumeration on Sp8(2) over its 120
# minus-type forms (8,411 nodes), in MiB.  The search holds a stabilizer
# only while it searches below it, keeps a subtree as its suffixes, and
# traces 0.32; a store that kept every stabilizer reached, with its
# orbit and step tables, traced 1.57, and the bound is half that.
SP82_MINUS_PEAK_MIB = 0.78


def test_enumeration_keeps_no_stabilizer_it_does_not_read_again():
    dom = build_domain({"kind": "quad_forms_minus", "m": 4, "q": 2})
    G = build_group_action(GroupSpec("Sp", 8, 2), dom)
    assert G.degree == 120 and G.order() == sp_order(4, 2)   # its chain stays out
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = enumerate_irredundant_base_sizes(G)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert res.complete and res.lengths == {8, 9} and res.nodes == 8411
    assert peak <= SP82_MINUS_PEAK_MIB * 2**20, peak / 2**20


# The tracemalloc peak of the complete minimal-base search of SL3(4).2 on
# its 336 complement pairs, in MiB.  Before a stabilizer kept the chain
# it was read from, it traced 0.60; with every group the search keeps
# holding its chain it traced 2.29, and the bound is 1.1 times the first.
SL342_MINIMAL_PEAK_MIB = 0.66


def test_minimal_search_keeps_no_chain():
    dom = build_domain({"kind": "pair_complement", "d": 3, "q": 4, "k": 1})
    G = build_group_action(GroupSpec("SL", 3, 4, extensions=("dual",)), dom)
    assert G.order() == 40_320                  # its chain stays out
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = minimal_base_sizes(G)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert res.complete and res.lengths == {2, 3, 4} and res.nodes == 1082
    assert peak <= SL342_MINIMAL_PEAK_MIB * 2**20, peak / 2**20
