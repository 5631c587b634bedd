"""The IBIS decision against complete enumerations: the memoised search
run to the end, and the element-table brute force at small order."""

import pytest

from conftest import (
    ACTIONS, action_group, named_case, recording_stabilizer_keys,
    unpruned_enumeration,
)
from ibiskit import ibis, perm
from ibiskit.actions import build_domain, build_group_action, build_quad_forms_domain
from ibiskit.groups import GroupSpec
from ibiskit.ibis import (
    EnumerationResult, IbisError, decide_ibis, enumerate_irredundant_base_sizes,
)


def check_against(verdict, lengths, G):
    """`verdict` agrees with the complete length set `lengths` of G."""
    if len(lengths) == 1:
        assert verdict.status == "IBIS" and verdict.complete
        assert verdict.rank == min(lengths) and verdict.lengths == lengths
        return
    assert verdict.status == "NotIBIS"
    assert len(verdict.lengths) >= 2 and verdict.lengths <= lengths
    short, long = verdict.witnesses
    assert len(short) < len(long)
    for w in verdict.witnesses:
        rep = ibis.base_report(G, w.points)
        assert rep == w and rep.is_base and rep.is_irredundant
        assert len(w) in verdict.lengths


@pytest.mark.parametrize("name", list(ACTIONS))
def test_decision_matches_full_enumeration(name):
    # the 9 table rows and the 5 heavier search actions
    G = action_group(name)
    full = enumerate_irredundant_base_sizes(G)
    assert full.complete
    verdict = decide_ibis(G)
    check_against(verdict, full.lengths, G)
    assert verdict.budget_used <= full.nodes


def sp28(sign, ext=()):
    dom = build_quad_forms_domain(1, 8, sign)
    return build_group_action(GroupSpec("Sp", 2, 8, extensions=ext), dom)


SMALL = {name: (lambda name=name: named_case(name)[0]) for name in (
    "SL3_2/proj7", "PGL2_5/proj6", "SL2_4/minus6", "Sp4_2/vec15",
    "Sp4_2'/vec15", "PSL3_3/proj13", "AutPSL2_4/proj5", "PSU3_2/iso9",
    "Sp4_2/omega_plus10", "Sp4_2'/omega_plus10", "Sp4_2/omega_minus6")}
SMALL.update({
    "Sp2(8) minus28": lambda: sp28("-"),
    "Sp2(8).3 minus28": lambda: sp28("-", ("frob",)),
    "Sp2(8) plus36": lambda: sp28("+"),
    "Sp2(8).3 plus36": lambda: sp28("+", ("frob",)),
})


@pytest.mark.parametrize("name", list(SMALL))
def test_decision_matches_brute_force(name):
    G = SMALL[name]()
    brute = unpruned_enumeration(G)
    assert brute.complete
    check_against(decide_ibis(G), brute.lengths, G)


@pytest.mark.parametrize("family,order", [("SU", 14_742_000_000),
                                          ("GU", 29_484_000_000)])
def test_unitary_groups_on_the_isotropic_points_of_h3_25(family, order):
    # the torus takes a = mu^(q+1) as its generator of GF(q)*, which at
    # q = 5 is not the image of GF(5)'s own generator: the orders over the
    # scalars and the verdict pin the group at such a q
    dom = build_domain({"kind": "totally_singular_k", "form": "hermitian",
                        "d": 4, "q": 5, "k": 1})
    assert dom.N == 3276
    G = build_group_action(GroupSpec(family, 4, 5), dom)
    assert G.order() == order
    verdict = decide_ibis(G)
    assert verdict.status == "NotIBIS" and verdict.lengths == {5, 6}
    assert [tuple(w.points) for w in verdict.witnesses] == [(0, 1, 2, 26, 156),
                                                          (0, 1, 2, 26, 27, 151)]


def test_early_stop_fires_on_the_336_pairs():
    # the full enumeration takes 1,402 nodes; the decision stops at the
    # second certified length
    G = action_group("SL3(4).2 pairs336")
    full = enumerate_irredundant_base_sizes(G)
    assert full.nodes == 1402 and full.lengths == {2, 3, 4}
    verdict = decide_ibis(G)
    assert verdict.status == "NotIBIS" and not verdict.complete
    assert verdict.budget_used < full.nodes


def test_seed_is_ignored():
    G = action_group("PSp4(3) proj40")
    assert decide_ibis(G, seed=7) == decide_ibis(G)
    assert "seed" not in decide_ibis(G).serialize()


@pytest.mark.parametrize("name", ["PSp4(3) proj40", "Om4-(4) ns1"])
def test_budget_is_honest(monkeypatch, name):
    # budget_used is the number of nodes expanded, never more than the
    # budget; a node builds at most one chain, and only for a stabilizer
    # the search does not hold yet; a verdict reached within the budget is
    # the one reached without a limit
    G = action_group(name)
    unlimited = decide_ibis(G)
    keys = recording_stabilizer_keys(monkeypatch)
    for budget in (0, 1, 2, 5, 20, 54, 55, 56, 65, 66, 67, 1000):
        keys.clear()
        v = decide_ibis(G, budget=budget)
        assert len(keys) <= v.budget_used <= budget
        assert len(set(keys)) == len(keys)
        if budget >= unlimited.budget_used:
            assert v == unlimited
        else:
            assert v.status in ("Unknown", "NotIBIS")
    v = decide_ibis(G, budget=0)
    assert v.status == "Unknown" and v.budget_used == 0 and not v.lengths


# Two actions in the regime b >= 6: (group, action, the lengths of the
# decision's witnesses, its nodes).  Their witness re-checks and base
# extensions ran the Schreier closure of a chain based at the points, 11
# and 11 times on SL6(3) and 29 and 20 times on SU(7, 2), before a
# stabilizer kept the chain it was read from.
B6_ACTIONS = {
    "SL6(3) points364": ({"family": "SL", "d": 6, "q": 3},
                         {"kind": "projective_points", "d": 6, "q": 3},
                         (9, 10), 665),
    "SU(7,2) isotropic2709": ({"family": "SU", "d": 7, "q": 2},
                              {"kind": "totally_singular_k", "form": "hermitian",
                               "d": 7, "q": 2, "k": 1},
                              (8, 9), 38_030),
}


@pytest.mark.parametrize("name", [
    "SL6(3) points364",
    pytest.param("SU(7,2) isotropic2709", marks=pytest.mark.slow)])
def test_stabilizer_steps_run_no_closure(monkeypatch, name):
    # every one-point step of the decision, its re-checks and a base
    # extension reads a certified chain: G's, one a step kept, or one
    # built afresh that reaches its target
    gdesc, adesc, lengths, nodes = B6_ACTIONS[name]
    G = build_group_action(GroupSpec.deserialize(gdesc), build_domain(adesc))
    G.order()
    calls = []
    close = perm._Chain._close

    def counted(self, i):
        calls.append(i)
        return close(self, i)

    monkeypatch.setattr(perm._Chain, "_close", counted)
    v = decide_ibis(G)
    assert v.status == "NotIBIS" and v.budget_used == nodes
    assert tuple(len(w) for w in v.witnesses) == lengths
    assert calls == []
    rep = ibis.extend_to_irredundant_base(G)
    assert rep.is_base and rep.is_irredundant
    assert calls == []


def test_negative_budget_rejected():
    with pytest.raises(IbisError):
        decide_ibis(action_group("SL3(2) proj"), budget=-1)


@pytest.mark.parametrize("search", [
    enumerate_irredundant_base_sizes, ibis.minimal_base_sizes])
def test_negative_budget_rejected_by_both_searches(search):
    # as by decide_ibis above: a negative budget is refused, not read as a
    # search cut short at once
    with pytest.raises(IbisError, match="budget must be >= 0, got -1"):
        search(action_group("SL3(2) proj"), -1)


def test_uncertified_witnesses_raise(monkeypatch):
    # a NotIBIS verdict is only returned with two re-checked bases
    G = action_group("PSp4(3) proj40")

    def bogus(G, node_budget, _two_lengths):
        return EnumerationResult(frozenset({4, 5}), False,
                                 {4: (0, 1, 2, 3), 5: (0, 0, 1, 2, 3)}, 2)

    monkeypatch.setattr(ibis, "enumerate_irredundant_base_sizes", bogus)
    with pytest.raises(IbisError):
        decide_ibis(G)
