"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime (run with -s to watch them stream)."""

import random
import time

import numpy as np

from conftest import all_quad_forms_domain, named_case, unpruned_enumeration

from ibiskit.actions import (
    build_quad_forms_domain, build_subspace_domain, enumerate_subspaces,
    induce_images,
)
from ibiskit.gf import field_of_order, make_field
from ibiskit.groups import transvection_symplectic
from ibiskit.ibis import (
    base_report, decide_ibis, e7_bound_check, enumerate_irredundant_base_sizes,
    extend_to_irredundant_base, is_base, is_irredundant, minimal_base_sizes,
)
from ibiskit.linalg import (
    all_row_vectors, det, eval_bilinear_batch, eval_quadratic_batch, mat_mul,
    quadratic_theta0, symplectic_form,
)
from ibiskit.witnesses import run_witness
from oracles import klein_map, pfaffian4, pfaffian_quadric_form, theta_value


def announce(criterion, started, detail=""):
    print(f"[PASS] criterion {criterion}: {detail} ({time.time() - started:.1f}s)")


IBIS_CATALOG_ROWS = [
    ("SL3_2/proj7", 7, 3),
    ("SL4_2/proj15", 15, 4),
    ("Sp4_2/vec15", 15, 4),
    ("Sp4_2'/vec15", 15, 3),
    ("PGL2_5/proj6", 6, 3),
    ("SL2_4/minus6", 6, 3),
    ("SL2_8/minus28", 28, 3),
]


def test_criterion_1_table_rows():
    t0 = time.time()
    for name, degree, rank in IBIS_CATALOG_ROWS:
        row_start = time.time()
        G, dom = named_case(name)
        assert dom.N == degree, name
        verdict = decide_ibis(G)
        assert verdict.status == "IBIS", (name, verdict.status)
        assert verdict.serialize()["method"] == "exhaustive" and verdict.complete, name
        assert verdict.rank == rank, (name, verdict.rank, rank)
        assert time.time() - row_start < 60, f"{name} exceeded 60 s"
    announce(1, t0, "catalog IBIS rows certified by exhaustive enumeration")


def test_criterion_2_non_ibis_witnesses():
    t0 = time.time()
    # PSp4(3) degree 40 on projective points: irredundant bases of sizes
    # 4 and 5, none of size 1
    G, _ = named_case("PSp4_3/proj40")
    res = enumerate_irredundant_base_sizes(G)
    assert res.complete and res.lengths == frozenset({4, 5})
    four, five = (base_report(G, res.witnesses[n]) for n in (4, 5))
    assert all(r.is_base and r.is_irredundant for r in (four, five))
    assert (len(four), len(five)) == (4, 5)
    v = decide_ibis(G)
    assert v.status == "NotIBIS" and v.lengths == frozenset({4, 5})

    # GL4(2) on the 35 two-subspaces: lengths {4,5}, minimal sizes {4}
    G2, _ = named_case("GL4_2/sub35")
    res = enumerate_irredundant_base_sizes(G2)
    assert res.complete and res.lengths == frozenset({4, 5})
    mins = minimal_base_sizes(G2)
    assert mins.complete and mins.lengths == frozenset({4})

    # PSp4(3) on the 40 totally singular lines: NotIBIS with the spanning
    # and intersection side conditions verified on the witnesses
    rep = run_witness("L3.14", q=3)
    assert rep["ok"], rep
    G3, _ = named_case("PSp4_3/lines40")
    assert decide_ibis(G3).status == "NotIBIS"
    assert time.time() - t0 < 300
    announce(2, t0, "non-IBIS witnesses for PSp4(3) and GL4(2)")


def test_criterion_3_nonsingular_points_theorem():
    t0 = time.time()
    for name, degree in (("Om4m4/ns68", 68), ("Om4p4/ns60", 60)):
        G, dom = named_case(name)
        assert dom.N == degree
        res = enumerate_irredundant_base_sizes(G)
        assert res.complete and res.lengths == frozenset({3})  # = d - 1
    for name in ("SO4p4/ns60", "SO4m4/ns68", "Om6p2/ns28", "SO6p2/ns28"):
        G, _ = named_case(name)
        assert decide_ibis(G).status == "NotIBIS", name
    rep = run_witness("P7.2-q2")
    assert rep["ok"], rep
    assert time.time() - t0 < 600
    announce(3, t0, "non-singular 1-subspaces: IBIS iff Omega and q >= 4")


def test_criterion_4_quadratic_forms_machinery():
    t0 = time.time()
    for (m, q) in [(1, 2), (1, 4), (1, 8), (2, 2), (2, 4)]:
        plus = build_quad_forms_domain(m, q, "+")
        minus = build_quad_forms_domain(m, q, "-")
        assert plus.N == q**m * (q**m + 1) // 2
        assert minus.N == q**m * (q**m - 1) // 2

    # polarization identity: exhaustive at (2,2), 10^3 random pairs at (2,4)
    for q, pairs in ((2, None), (4, 1000)):
        F = field_of_order(q)
        theta0 = quadratic_theta0(F, 4)
        phi = symplectic_form(F, 4)
        vs = all_row_vectors(F, 4)
        if pairs is None:
            U = np.repeat(vs, len(vs), axis=0)
            V = np.tile(vs, (len(vs), 1))
        else:
            rng = np.random.RandomState(7)
            U = vs[rng.randint(0, len(vs), pairs)]
            V = vs[rng.randint(0, len(vs), pairs)]
        lhs = F.sub(F.sub(eval_quadratic_batch(theta0, F.add(U, V)),
                          eval_quadratic_batch(theta0, U)),
                    eval_quadratic_batch(theta0, V))
        assert np.array_equal(lhs, eval_bilinear_batch(phi, U, V))

    # conjugation law theta_a^{t_c} = theta_{a+(sqrt(theta_a(c))+1)c},
    # exhaustive at (2,2)
    F = make_field(2, 1)
    dom = all_quad_forms_domain(2, 2)
    form = symplectic_form(F, 4)
    for c in all_row_vectors(F, 4):
        if not c.any():
            continue
        [pi] = induce_images(transvection_symplectic(c, form)[None], 0, False, dom)
        for a in all_row_vectors(F, 4):
            coeff = int(F.add(int(F.frob(theta_value(dom, a, c), F.f - 1)), 1))
            img = F.add(a, F.mul(coeff, c))
            assert pi[dom.index_of(a)] == dom.index_of(img)

    # stabilizer orders and the size-4/size-5 bases of the even-q case
    rep = run_witness("P5.1", q=4)
    assert rep["ok"], rep
    got96 = next(c for c in rep["checks"] if "2(q-1)q^2" in c["claim"])
    assert got96["detail"]["got"] == "96"
    assert time.time() - t0 < 300
    announce(4, t0, "quadratic-forms machinery at (m,q) up to (2,4)")


def test_criterion_5_klein_correspondence():
    t0 = time.time()
    for q in (2, 3):
        F = field_of_order(q)
        [lines] = build_subspace_domain(4, q, 2).bases()
        Q = pfaffian_quadric_form(F)
        points = enumerate_subspaces(F, 6, 1)
        singular = {P.tobytes() for P in
                    points[eval_quadratic_batch(Q, points[:, 0]) == 0]}
        images = {P.tobytes() for P in klein_map(F, lines)}
        assert len(images) == len(lines) == (q**2 + 1) * (q**2 + q + 1)
        assert images == singular  # bijective onto the quadric points

    F3 = field_of_order(3)
    rng = random.Random(123)
    n = 10**4
    X = np.zeros((n, 4, 4), dtype=np.int64)
    P = np.zeros((n, 4, 4), dtype=np.int64)
    for k in range(n):
        for i in range(4):
            for j in range(i + 1, 4):
                X[k, i, j] = rng.randrange(3)
                X[k, j, i] = int(F3.neg(X[k, i, j]))
        P[k] = [[rng.randrange(3) for _ in range(4)] for _ in range(4)]
    pf = np.array([pfaffian4(F3, x) for x in X])
    assert np.array_equal(F3.mul(pf, pf), det(F3, X))
    Y = mat_mul(F3, mat_mul(F3, P.transpose(0, 2, 1), X), P)
    assert np.array_equal([pfaffian4(F3, y) for y in Y],
                          F3.mul(det(F3, P), pf))
    assert time.time() - t0 < 60
    announce(5, t0, "Klein correspondence and Pfaffian identities")


def test_criterion_6_witness_catalog():
    t0 = time.time()
    reports = [
        run_witness("L3.2", d=3, q=3),
        run_witness("L3.2", d=4, q=3),
        run_witness("L3.3"),
        run_witness("L3.13", q=4),
        run_witness("L3.13", q=5),
        run_witness("L6.1", q=3),
    ]
    for rep in reports:
        assert rep["ok"], rep
    assert time.time() - t0 < 600
    announce(6, t0, "lemma witness catalog (chains, orders, collapses)")


ALL_SMALL_DOMAINS = [
    "SL3_2/proj7", "PGL2_5/proj6", "SL2_4/minus6", "SL2_8/minus28",
    "SL4_2/proj15", "Sp4_2/vec15", "Sp4_2'/vec15", "GL4_2/sub35",
    "PSp4_3/proj40", "PSp4_3/lines40", "Om6p2/ns28", "SO6p2/ns28",
    "PSL3_3/proj13", "Sp4_2/omega_plus10", "Sp4_2/omega_minus6",
    "PSU3_2/iso9",
]

CERTIFIED_IBIS = ["SL3_2/proj7", "SL4_2/proj15", "Sp4_2/vec15", "Sp4_2'/vec15",
                  "PGL2_5/proj6", "SL2_4/minus6", "SL2_8/minus28",
                  "Om4p4/ns60", "Om4m4/ns68", "PSU3_2/iso9"]


def test_criterion_7_property_suite():
    t0 = time.time()
    rng = random.Random(77)

    # orbit-stabilizer identity and socle transitivity at every
    # acceptance parameter
    for name in ALL_SMALL_DOMAINS + ["Om4p4/ns60", "Om4m4/ns68",
                                     "Sp4_4/omega_plus136", "PSL4_3/proj40"]:
        G, dom = named_case(name)
        pt = rng.randrange(G.degree)
        assert (G.orbits() == 0).all(), name
        assert G.order() == dom.N * G.pointwise_stabilizer((pt,)).order(), name

    # BSGS verification: random products of <= 20 generators sift to identity
    for name in ("PSp4_3/proj40", "Sp4_4/omega_plus136", "PSL4_3/proj40"):
        G, _ = named_case(name)
        for _ in range(10):
            w = np.arange(G.degree)
            for _ in range(rng.randrange(1, 21)):
                w = G.generators[rng.randrange(len(G.generators))][w]
            assert G.is_member(w), name

    # reorder-invariance of irredundant bases on every certified-IBIS case
    for name in CERTIFIED_IBIS:
        G, _ = named_case(name)
        rep = extend_to_irredundant_base(G)
        pts = list(rep.points)
        for _ in range(5):
            rng.shuffle(pts)
            assert is_irredundant(G, pts) and is_base(G, pts), name

    # subgroup monotonicity: irredundant for H <= G implies irredundant for G
    for name in ("PSp4_3/proj40", "Om6p2/ns28"):
        G, _ = named_case(name)
        H = G.pointwise_stabilizer((0,))
        found = 0
        while found < 6:
            seq = rng.sample(range(1, G.degree), rng.randrange(2, 5))
            if is_irredundant(H, seq):
                found += 1
                assert is_irredundant(G, seq), name

    # pruned and unpruned enumeration agree on every domain of degree <= 40
    for name in ALL_SMALL_DOMAINS:
        G, dom = named_case(name)
        assert dom.N <= 40
        a = enumerate_irredundant_base_sizes(G)
        b = unpruned_enumeration(G)
        assert a.complete and b.complete and a.lengths == b.lengths, name
    announce(7, t0, "property suite (orbit-stabilizer, sifting, reorder, "
                    "monotonicity, pruning oracle)")


def test_criterion_8_e7_arithmetic():
    t0 = time.time()
    degree, n2, ell = e7_bound_check(2)
    assert ell == 7
    for q in (3, 4, 5, 7, 8, 9):
        assert e7_bound_check(q)[2] >= 7
    # explicit second route for the degree at q = 2
    q = 2
    assert degree == (q**14 - 1) * (q**9 + 1) * (q**5 + 1) // (q - 1)
    assert time.time() - t0 < 1
    announce(8, t0, "E7 parabolic suborbit arithmetic, min_ell = 7 at q = 2")
