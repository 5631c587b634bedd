"""Broader classification branches: the even-characteristic coset
actions at m = 1 and m = q = 2, the pair-action exception at (3, 4), and
the q = 4 line-domain chains."""

import pytest

from ibiskit.actions import (
    build_group_action, build_pair_domain, build_quad_forms_domain,
)
from ibiskit.groups import GroupSpec
from ibiskit.ibis import decide_ibis, enumerate_irredundant_base_sizes
from ibiskit.witnesses import run_witness


def test_minus_class_sl28_and_full_automorphism_group():
    dom = build_quad_forms_domain(1, 8, "-")
    assert dom.N == 28
    for ext in ((), ("frob",)):
        G = build_group_action(GroupSpec("Sp", 2, 8, extensions=ext), dom)
        v = decide_ibis(G)
        assert v.status == "IBIS" and v.rank == 3, ext


def test_plus_class_ibis_only_for_full_gamma_l():
    # the plus-class action is IBIS exactly for the full semilinear group
    # when the field degree is an odd prime
    dom = build_quad_forms_domain(1, 8, "+")
    assert dom.N == 36
    v0 = decide_ibis(build_group_action(GroupSpec("Sp", 2, 8), dom))
    assert v0.status == "NotIBIS" and v0.lengths == frozenset({2, 3})
    vA = decide_ibis(build_group_action(
        GroupSpec("Sp", 2, 8, extensions=("frob",)), dom))
    assert vA.status == "IBIS" and vA.rank == 3


@pytest.mark.parametrize("sign,degree,rank_full,rank_derived", [
    ("+", 10, 4, 3), ("-", 6, 5, 4)])
def test_m2_q2_classes_are_ibis(sign, degree, rank_full, rank_derived):
    # at m = q = 2 the socle is Alt(6); the class actions are IBIS with
    # the symmetric/alternating natural-action ranks
    dom = build_quad_forms_domain(2, 2, sign)
    assert dom.N == degree
    v = decide_ibis(build_group_action(GroupSpec("Sp", 4, 2), dom))
    assert v.status == "IBIS" and v.rank == rank_full
    vd = decide_ibis(build_group_action(GroupSpec("Sp", 4, 2, derived=True), dom))
    assert vd.status == "IBIS" and vd.rank == rank_derived


def test_pair_action_exception_336():
    # the complement-pair action of the duality extension of PSL3(4):
    # degree 336, not IBIS (a computer-verified exceptional case); the
    # decision stops at the first two lengths it certifies, which may be
    # any two of the three
    dom = build_pair_domain(3, 4, 1, "complement")
    assert dom.N == 336
    G = build_group_action(GroupSpec("SL", 3, 4, extensions=("dual",)), dom)
    assert G.order() == 40320
    v = decide_ibis(G)
    assert v.status == "NotIBIS"
    a, b = v.witnesses
    assert len(a) != len(b)
    for w in v.witnesses:
        assert w.is_base and w.is_irredundant and len(w) in {2, 3, 4}
    assert v.lengths <= frozenset({2, 3, 4})
    enum = enumerate_irredundant_base_sizes(G)
    assert enum.complete and enum.lengths == frozenset({2, 3, 4})


def test_line_domain_chain_q4():
    # the general-q branch of the line-domain witness: at q = 4 the
    # six-term chain is an irredundant base
    rep = run_witness("L3.14", q=4)
    assert rep["ok"], rep


def test_unitary_point_action_chains_q3():
    # PSU3(3) on the 28 isotropic points: the frame/trace-equation chain
    # of length 4 is an irredundant base for the socle with stabilizer
    # orders (q^2-1)/gcd(3,q+1) and (q+1)/gcd(3,q+1); the special-alpha
    # chain of length 3 is an irredundant base for the full semilinear
    # group; together they certify NotIBIS
    import numpy as np
    from ibiskit.gf import field_of_order, make_field
    from oracles import find_special_alpha
    from ibiskit.linalg import hermitian_form, rref
    from ibiskit.actions import build_totally_singular
    from ibiskit.ibis import base_report

    q = 3
    F0 = field_of_order(q)
    E = make_field(F0.p, 2 * F0.f)
    dom = build_totally_singular(hermitian_form(E, 3), 1)
    assert dom.N == q**3 + 1
    G0 = build_group_action(GroupSpec("SU", 3, q), dom)
    GA = build_group_action(GroupSpec("GU", 3, q, extensions=("frob",)), dom)
    assert G0.order() == 6048 and GA.order() == 12096

    def sub(*vec):
        return dom.index_of(rref(E, np.array([vec]))[0])

    alpha0 = next(c for c in range(1, E.q)
                  if int(E.add(c, E.frob(c, F0.f))) == 0)
    at, b = next((at, b) for b in range(1, E.q) for at in range(E.q)
                 if int(E.add(E.add(at, E.frob(at, F0.f)),
                              E.mul(b, E.frob(b, F0.f)))) == 0)
    rep = base_report(G0, [sub(1, 0, 0), sub(0, 0, 1),
                           sub(alpha0, 0, 1), sub(at, b, 1)])
    assert rep.is_base and rep.is_irredundant
    assert rep.stab_orders[2] == (q**2 - 1)  # gcd(3, q+1) = 1 here
    assert rep.stab_orders[3] == (q + 1)
    alpha = find_special_alpha(q)
    repA = base_report(GA, [sub(1, 0, 0), sub(0, 0, 1), sub(alpha, 1, 1)])
    assert repA.is_base and repA.is_irredundant and len(repA) == 3
    v = decide_ibis(G0)
    assert v.status == "NotIBIS" and v.lengths == frozenset({3, 4})


def test_incident_pair_chain_collapse():
    # flags of PG(3,2) under the duality extension of GL4(2): irredundant
    # chains of lengths 4 and 3 reach the same stabilizer, each strict
    # step certified by an explicit unipotent element
    import numpy as np
    from ibiskit.gf import field_of_order
    from ibiskit.linalg import rref
    from ibiskit.actions import induce_images
    from ibiskit.ibis import is_irredundant, same_pointwise_stabilizer

    F = field_of_order(2)
    dom = build_pair_domain(4, 2, 1, "incident")
    assert dom.N == 105
    G = build_group_action(GroupSpec("SL", 4, 2, extensions=("dual",)), dom)
    assert G.order() == 40320

    def pair(small, bigs):
        return dom.index_of(np.vstack([rref(F, np.array([small]))[0],
                                       rref(F, np.array(bigs))[0]]))

    e1, e2, e3, e4 = np.eye(4, dtype=int)
    w1 = pair(e1, [e1, e2, e4])
    w2 = pair(e1, [e1, e3, e4])
    w3 = pair(e2, [e1, e2, e4])
    w4 = pair(e2, [e2, e3, e4])
    A, B = [w1, w2, w3, w4], [w1, w2, w4]
    assert is_irredundant(G, A) and is_irredundant(G, B)
    assert same_pointwise_stabilizer(G, A, B)
    certs = [
        (np.array([[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 0, 1]]),
         [w1], w2),
        (np.array([[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]),
         [w1, w2], w3),
        (np.array([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]),
         [w1, w2, w3], w4),
    ]
    for M, fixed, moved in certs:
        [p] = induce_images(M[None], 0, False, dom)
        assert all(p[w] == w for w in fixed) and p[moved] != moved


def test_klein_lines_and_planes_counts():
    # totally singular lines of the Pfaffian quadric match the incident
    # point-plane flags; singular planes split as points + planes
    from ibiskit.gf import field_of_order
    from ibiskit.linalg import is_totally_singular
    from oracles import pfaffian_quadric_form
    from ibiskit.actions import enumerate_subspaces

    for q in (2, 3):
        F = field_of_order(q)
        Q = pfaffian_quadric_form(F)
        npts = (q**4 - 1) // (q - 1)
        flags = npts * (q**2 + q + 1)
        ts2 = is_totally_singular(Q, enumerate_subspaces(F, 6, 2)).sum()
        assert ts2 == flags
        ts3 = is_totally_singular(Q, enumerate_subspaces(F, 6, 3)).sum()
        assert ts3 == 2 * npts


def test_minus_type_hermitian_duality_counts():
    # the elliptic 6-space over GF(q) and the hermitian 4-space over
    # GF(q^2) share their isometry-group order, with totally singular
    # dimensions 1 and 2 exchanged (a duality, not a same-k matching):
    # 27 points / 45 lines against 45 points / 27 lines at q = 2
    from ibiskit.gf import field_of_order, make_field
    from ibiskit.linalg import hermitian_form, quadratic_minus
    from ibiskit.actions import build_totally_singular
    from ibiskit.groups import GroupSpec as GS
    from oracles import certified_order

    F2 = field_of_order(2)
    E = make_field(2, 2)
    Qm = quadratic_minus(F2, 6)
    h = hermitian_form(E, 4)
    counts_o = [build_totally_singular(Qm, k).N for k in (1, 2)]
    counts_u = [build_totally_singular(h, k).N for k in (1, 2)]
    assert counts_o == [27, 45]
    assert counts_u == [45, 27]
    assert certified_order(GS("OmegaMinus", 6, 2)) == \
        certified_order(GS("SU", 4, 2)) == 25920
