import random

import pytest

from conftest import (
    element_table, named_case, subspace_point, unpruned_enumeration,
)

from ibiskit.ibis import (
    IbisError, base_report, decide_ibis, e7_bound_check,
    enumerate_irredundant_base_sizes, extend_to_irredundant_base,
    is_base, is_irredundant, minimal_base_sizes,
    same_pointwise_stabilizer,
)
from ibiskit.perm import PermError, PermGroup


def test_is_base_empty_sequence():
    trivial = PermGroup(4, [])
    assert is_base(trivial, ())
    G, _ = named_case("SL3_2/proj7")
    assert not is_base(G, ())


def test_is_base_sl32_standard_frame():
    G, dom = named_case("SL3_2/proj7")
    seq = [subspace_point(dom, [1, 0, 0]), subspace_point(dom, [0, 1, 0]),
           subspace_point(dom, [0, 0, 1])]
    assert is_base(G, seq)
    assert is_irredundant(G, seq)


def test_is_base_pgl25_any_three_points():
    G, _ = named_case("PGL2_5/proj6")
    rng = random.Random(2)
    for _ in range(10):
        seq = rng.sample(range(6), 3)
        assert is_base(G, seq) and is_irredundant(G, seq)


def test_is_irredundant_rejects_repeats():
    G, _ = named_case("SL3_2/proj7")
    assert not is_irredundant(G, (0, 0))


def test_lemma_projective_chains_psl33():
    # the two standard-frame chains of different length reach the same
    # stabilizer in PSL_3(3) acting on the 13 projective points
    G, dom = named_case("PSL3_3/proj13")
    a = [subspace_point(dom, [1, 0, 0]), subspace_point(dom, [0, 1, 0]),
         subspace_point(dom, [0, 0, 1]), subspace_point(dom, [1, 1, 1])]
    b = [subspace_point(dom, [1, 0, 0]), subspace_point(dom, [0, 1, 0]),
         subspace_point(dom, [1, 1, 0]), subspace_point(dom, [0, 0, 1]),
         subspace_point(dom, [1, 1, 1])]
    assert is_irredundant(G, a) and is_irredundant(G, b)
    assert same_pointwise_stabilizer(G, a, b)
    assert decide_ibis(G).status == "NotIBIS"


def test_witness_chain_gl42_two_subspaces():
    G, dom = named_case("GL4_2/sub35")
    e1, e2, e3, e4 = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]
    e13 = [1, 0, 1, 0]
    e24 = [0, 1, 0, 1]
    a = [subspace_point(dom, e1, e2), subspace_point(dom, e3, e4),
         subspace_point(dom, e13, e24), subspace_point(dom, e1, e3),
         subspace_point(dom, e2, e4)]
    b = [subspace_point(dom, e1, e2), subspace_point(dom, e1, e3),
         subspace_point(dom, e2, e4), subspace_point(dom, e3, e4)]
    assert is_irredundant(G, a) and is_irredundant(G, b)
    assert same_pointwise_stabilizer(G, a, b)
    # at d = 4 the common stabilizer is trivial: both are bases
    assert is_base(G, a) and is_base(G, b)
    assert len(a) == 5 and len(b) == 4


def test_verify_witness_chain_identical():
    G, _ = named_case("SL3_2/proj7")
    # a chain paired with itself reaches its own stabilizer, so the pair
    # passes the witness checks exactly when the chain is irredundant
    assert same_pointwise_stabilizer(G, (0, 1, 2), (0, 1, 2))


def test_extend_trivial_group():
    rep = extend_to_irredundant_base(PermGroup(5, []))
    assert rep.points == () and rep.is_base


def test_extend_psp43():
    G, _ = named_case("PSp4_3/proj40")
    rep = extend_to_irredundant_base(G)
    assert rep.is_base and rep.is_irredundant
    assert len(rep) in (4, 5)


def test_extend_omega_minus_from_any_point():
    G, dom = named_case("Om4m4/ns68")
    rng = random.Random(5)
    for pt in rng.sample(range(dom.N), 4):
        rep = extend_to_irredundant_base(G, (pt,))
        assert rep.is_base and rep.is_irredundant and len(rep) == 3


def test_extend_rejects_redundant_prefix():
    G, _ = named_case("SL3_2/proj7")
    with pytest.raises(IbisError):
        extend_to_irredundant_base(G, (0, 0))


@pytest.mark.parametrize("point", [-1, 4])
@pytest.mark.parametrize("call", [
    lambda G, seq: G.chain_orders(seq), base_report, is_base, is_irredundant,
    extend_to_irredundant_base,
], ids=["chain_orders", "base_report", "is_base", "is_irredundant",
        "extend_to_irredundant_base"])
def test_point_out_of_range_rejected(call, point):
    # S4: -1 must not wrap to the last point, nor 4 escape as an IndexError
    G = PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    with pytest.raises(PermError, match="point out of range"):
        call(G, [0, point])


def test_psp43_has_bases_of_lengths_4_and_5():
    # the enumeration's witnesses are irredundant bases of each length
    G, _ = named_case("PSp4_3/proj40")
    res = enumerate_irredundant_base_sizes(G)
    for size in (4, 5):
        rep = base_report(G, res.witnesses[size])
        assert len(rep) == size and rep.is_base and rep.is_irredundant


def test_no_base_of_length_1():
    for name in ("PSp4_3/proj40", "Sp4_2/vec15"):
        G, _ = named_case(name)
        res = enumerate_irredundant_base_sizes(G)
        assert res.complete and 1 not in res.witnesses


def test_enumerate_sl32():
    G, _ = named_case("SL3_2/proj7")
    res = enumerate_irredundant_base_sizes(G)
    assert res.lengths == frozenset([3]) and res.complete


def test_enumerate_trivial():
    res = enumerate_irredundant_base_sizes(PermGroup(4, []))
    assert res.lengths == frozenset([0]) and res.complete


def test_enumerate_gl42_two_subspaces():
    G, _ = named_case("GL4_2/sub35")
    res = enumerate_irredundant_base_sizes(G)
    assert res.lengths == frozenset([4, 5]) and res.complete


def test_enumerate_sp44_forms_complete():
    # Sp4(4), of order 979200, on the 136 plus-type forms
    G, _ = named_case("Sp4_4/omega_plus136")
    res = enumerate_irredundant_base_sizes(G)
    assert res.lengths == frozenset([4, 5]) and res.complete


def test_enumerate_budget_exhaustion_flagged():
    G, _ = named_case("PSp4_3/proj40")
    res = enumerate_irredundant_base_sizes(G, node_budget=3)
    assert not res.complete


@pytest.mark.parametrize("name", [
    "SL3_2/proj7", "PGL2_5/proj6", "SL2_4/minus6", "Sp4_2'/vec15",
    "PSL3_3/proj13", "Sp4_2/omega_plus10", "Sp4_2/omega_minus6",
])
def test_pruned_vs_unpruned_agreement_small(name):
    G, _ = named_case(name)
    a = enumerate_irredundant_base_sizes(G)
    b = unpruned_enumeration(G)
    assert a.complete and b.complete
    assert a.lengths == b.lengths


def test_decide_sp42_derived_ibis3():
    G, _ = named_case("Sp4_2'/vec15")
    v = decide_ibis(G)
    assert v.status == "IBIS" and v.rank == 3 and v.serialize()["method"] == "exhaustive"


def test_decide_psp43_notibis():
    G, _ = named_case("PSp4_3/proj40")
    v = decide_ibis(G)
    assert v.status == "NotIBIS"
    assert {len(w) for w in v.witnesses} == {4, 5}
    for w in v.witnesses:
        assert w.is_base and w.is_irredundant


def test_decide_aut_psl24_ibis4():
    G, _ = named_case("AutPSL2_4/proj5")
    assert G.order() == 120  # PGammaL_2(4) on 5 points
    v = decide_ibis(G)
    assert v.status == "IBIS" and v.rank == 4


def test_decide_deterministic():
    G, _ = named_case("PSp4_3/proj40")
    v1 = decide_ibis(G, budget=100000, seed=7)
    v2 = decide_ibis(G, budget=100000, seed=7)
    assert v1.serialize() == v2.serialize()


def minimal_bases_counting_chains(monkeypatch, name):
    """minimal_base_sizes on the named case, and the chains it built
    (G's own chain is built first, so the count is the search's)."""
    G, _ = named_case(name)
    G.order()
    calls = 0
    chain = PermGroup.chain

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return chain(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "chain", counted)
    res = minimal_base_sizes(G)
    return res, calls


def test_minimal_base_sizes_gl42(monkeypatch):
    # one chain per point set would make 30,781 chains here; one least
    # point per orbit of the current stabilizer and the lookup among the
    # kept stabilizers leave 193
    res, calls = minimal_bases_counting_chains(monkeypatch, "GL4_2/sub35")
    assert res.lengths == frozenset([4]) and res.complete
    assert calls <= 250


def test_minimal_base_sizes_psp43(monkeypatch):
    # 16,906 chains with one per point set, 63 with one least point per
    # orbit and the lookup among the kept stabilizers
    res, calls = minimal_bases_counting_chains(monkeypatch, "PSp4_3/proj40")
    assert res.lengths == frozenset([4]) and res.complete
    assert calls <= 100


def test_minimal_base_sizes_trivial_and_ibis():
    res = minimal_base_sizes(PermGroup(3, []))
    assert res.lengths == frozenset([0])
    # in an IBIS group every irredundant base length equals b(G), and the
    # minimal bases realize the same size
    G, _ = named_case("SL3_2/proj7")
    assert minimal_base_sizes(G).lengths == frozenset([3])


def test_minimal_base_sizes_above_element_cap():
    # Sym(9) on 9 points, of order 362880 > ELEMENT_CAP: its minimal bases
    # are the 8-subsets of the points
    G = PermGroup(9, [[1, 0, 2, 3, 4, 5, 6, 7, 8],
                      [1, 2, 3, 4, 5, 6, 7, 8, 0]])
    assert G.order() == 362880
    res = minimal_base_sizes(G)
    assert res.lengths == frozenset([8]) and res.complete


def test_same_pointwise_stabilizer_distinguishes_equal_orders():
    # two point stabilizers of PSp4(3) on 40 points share the order 648
    # but are different subgroups
    G, _ = named_case("PSp4_3/proj40")
    assert G.chain_orders((0,))[1] == G.chain_orders((1,))[1] == 648
    assert not same_pointwise_stabilizer(G, (0,), (1,))
    assert same_pointwise_stabilizer(G, (0, 1), (1, 0))


def test_minimal_base_sizes_against_subset_oracle():
    # independent check: enumerate all subsets, test bases and minimality
    # by definition, compare the collected sizes
    import itertools
    for name in ("SL3_2/proj7", "Sp4_2/omega_minus6", "PGL2_5/proj6"):
        G, _ = named_case(name)
        n = G.degree
        bases = set()
        for k in range(1, 6):
            for S in itertools.combinations(range(n), k):
                if is_base(G, S):
                    bases.add(frozenset(S))
        oracle = set()
        for S in bases:
            if all(frozenset(S - {x}) not in bases for x in S):
                oracle.add(len(S))
        assert minimal_base_sizes(G).lengths == frozenset(oracle)


def test_reorder_invariance_on_ibis_instances():
    rng = random.Random(9)
    for name in ("SL3_2/proj7", "Sp4_2'/vec15", "PGL2_5/proj6"):
        G, _ = named_case(name)
        rep = extend_to_irredundant_base(G)
        pts = list(rep.points)
        for _ in range(6):
            rng.shuffle(pts)
            assert is_irredundant(G, pts) and is_base(G, pts)


def test_monotonicity_lemma_point_stabilizer():
    # sequences irredundant for a subgroup are irredundant for the group
    G, _ = named_case("PSp4_3/proj40")
    H = G.pointwise_stabilizer((0,))
    rng = random.Random(13)
    found = 0
    while found < 8:
        seq = rng.sample(range(1, 40), rng.randrange(2, 5))
        if is_irredundant(H, seq):
            found += 1
            assert is_irredundant(G, seq)


def test_sandwich_consistency_psp43():
    # irredundant bases of lengths 5 > 4 exist for G itself, so by the
    # subgroup-sandwich criterion decide_ibis must never answer IBIS
    G, _ = named_case("PSp4_3/proj40")
    assert len(extend_to_irredundant_base(G)) in (4, 5)
    assert decide_ibis(G).status != "IBIS"


def _table_chain_orders(G, seq):
    rows = element_table(G)
    orders = [len(rows)]
    for p in seq:
        rows = rows[rows[:, p] == p]
        orders.append(len(rows))
    return orders


def test_engines_agree_on_chain_orders():
    # the stabilizer chain and the element table filtered point by point
    # give identical order chains for random point sequences, repeats
    # included
    rng = random.Random(21)
    for name in ("PSp4_3/proj40", "GL4_2/sub35", "Om6p2/ns28"):
        G, _ = named_case(name)
        for _ in range(8):
            seq = rng.sample(range(G.degree), rng.randrange(1, 5))
            assert _table_chain_orders(G, seq) == G.chain_orders(seq), (name, seq)
        for _ in range(8):
            seq = [rng.randrange(G.degree) for _ in range(rng.randrange(2, 7))]
            if rng.random() < 0.7:
                seq[rng.randrange(len(seq))] = seq[0]  # force a repeat
            assert _table_chain_orders(G, seq) == G.chain_orders(seq), (name, seq)


def test_pointwise_stabilizer_generators_fix_points():
    rng = random.Random(27)
    for name in ("Sp4_4/omega_plus136", "PSL4_3/proj40"):
        G, _ = named_case(name)
        pts = rng.sample(range(G.degree), 3)
        H = G.pointwise_stabilizer(pts)
        assert H.order() > 0
        for g in H.generators:
            for p in pts:
                assert g[p] == p
        # and the subgroup order matches the index product
        orders = G.chain_orders(pts)
        assert orders[-1] == H.order()


def test_e7_bound_q2():
    degree, n2, ell = e7_bound_check(2)
    assert ell == 7
    assert degree == (2**14 - 1) * (2**9 + 1) * (2**5 + 1)
    assert n2 == 2 * (2**9 - 1) * (2**8 + 2**4 + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_e7_bound_at_least_7(q):
    _, _, ell = e7_bound_check(q)
    assert ell >= 7


def test_e7_rejects_large_q():
    with pytest.raises(IbisError):
        e7_bound_check(17)


def test_base_report_shape():
    G, _ = named_case("SL3_2/proj7")
    rep = base_report(G, (0, 1))
    assert rep.stab_orders[0] == 168
    assert len(rep.stab_orders) == 3
    data = rep.serialize()
    assert data["stab_orders"][0] == "168"
