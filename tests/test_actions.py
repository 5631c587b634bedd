import functools
import hashlib
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    all_quad_forms_domain, brute_nondegenerate, brute_totally_singular, compose,
    induced_rows, invert, move_vectors, vector_set,
)
from ibiskit import actions, linalg
from ibiskit.actions import (
    ActionError, build_domain, build_group_action, build_nondegenerate_domain,
    build_nonsingular_points, build_pair_domain, build_quad_forms_domain,
    build_subspace_domain, build_totally_singular,
    enumerate_subspaces, gaussian_binomial, induce_images, theta_value,
)
from ibiskit.cli import main
from ibiskit.gf import field_of_order, make_field, trace_bit
from ibiskit.groups import (
    GroupError, GroupSpec, classical_generators, outer_element,
    transvection_symplectic,
)
from ibiskit.linalg import quadratic_minus, quadratic_plus, symplectic_form

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def test_enumerate_subspaces_counts():
    for (d, k, q, F) in [(4, 2, 2, F2), (4, 1, 3, F3), (3, 2, 4, F4), (5, 2, 2, F2)]:
        pts = enumerate_subspaces(F, d, k)
        assert pts.shape == (gaussian_binomial(d, k, q), k, d)
        assert len({B.tobytes() for B in pts}) == len(pts)
        for B in pts:
            R, pivots = linalg.rref(F, B)
            assert np.array_equal(R, B) and len(pivots) == k


# q -> (cases, sha256 of the stacks enumerate_subspaces(F, d, k) in the
# order 2 <= d <= 7, 1 <= k < d, every case of at most SIZE_CAP subspaces):
# the bytes the Grassmannian gave when it was built by broadcasting, one
# block per pivot pattern, before the row-at-a-time build replaced it
ENUMERATION_DIGESTS = {
    2: (21, "896b499e65af5b55478cf15c6f5edaf0427a6937a1eb10d145f31846aa4ee944"),
    3: (21, "d48d0662cc1dec391abcf58fea384232670d19846597ccf38b7440b0ed03b6bf"),
    4: (17, "c06987d1276656c62b96bbc3452e145379ccad5d48027a576a403737140cb50f"),
    5: (16, "6210dcd487938399de4a07c71d9f7d58d61a574c155cabcf0520bcd3398170d6"),
    7: (14, "d7a561e65c4e503dbf06070babfe225bf27df4f1dbb9a25c1ced783aa63e7de9"),
    8: (14, "1db60df58b2ca3dbbc3963f7413424e965353671ad5b2f794dfdafa1d911606d"),
    9: (14, "f9ae4776ff9a52ac53dae8af3554073e1df544530033729eff4dac635ffafa4d"),
}


@pytest.mark.parametrize("q", sorted(ENUMERATION_DIGESTS))
def test_enumerate_subspaces_bytes_are_pinned(q):
    F = field_of_order(q)
    cases = [(d, k) for d in range(2, 8) for k in range(1, d)
             if gaussian_binomial(d, k, q) <= actions.SIZE_CAP]
    digest = hashlib.sha256()
    for d, k in cases:
        S = enumerate_subspaces(F, d, k)
        assert S.dtype == np.int64 and S.shape == (gaussian_binomial(d, k, q), k, d)
        digest.update(S.tobytes())
    assert (len(cases), digest.hexdigest()) == ENUMERATION_DIGESTS[q]


@pytest.mark.parametrize("q,d,k", [(q, d, k) for q in (2, 3, 4) for d in range(2, 6)
                                   for k in range(1, d)])
def test_enumeration_refuses_exactly_the_grassmannians_over_the_cap(monkeypatch,
                                                                     q, d, k):
    n = gaussian_binomial(d, k, q)
    monkeypatch.setattr(actions, "SIZE_CAP", n)
    assert len(enumerate_subspaces(field_of_order(q), d, k)) == n
    monkeypatch.setattr(actions, "SIZE_CAP", n - 1)
    with pytest.raises(ActionError, match="^size cap exceeded$"):
        enumerate_subspaces(field_of_order(q), d, k)


@pytest.mark.parametrize("mode", ["complement", "incident"])
@pytest.mark.parametrize("d,q,k", [(3, 2, 1), (4, 3, 1), (5, 2, 2)])
def test_pair_domain_refuses_from_its_count(monkeypatch, d, q, k, mode):
    # [d k]_q q^(k(d-k)) complements and [d k]_q [d-k k]_q incident pairs
    n = gaussian_binomial(d, k, q) * (q ** (k * (d - k)) if mode == "complement"
                                      else gaussian_binomial(d - k, k, q))
    monkeypatch.setattr(actions, "SIZE_CAP", n)
    assert build_pair_domain(d, q, k, mode).N == n

    def no_enumeration(*args):
        raise AssertionError("enumerated the members of an oversize pair domain")

    monkeypatch.setattr(actions, "SIZE_CAP", n - 1)
    monkeypatch.setattr(actions, "enumerate_subspaces", no_enumeration)
    with pytest.raises(ActionError, match="^size cap exceeded$"):
        build_pair_domain(d, q, k, mode)


def test_incident_pairs_are_listed_inside_each_big_member():
    # deciding all [5 2]_4^2 candidate pairs by their remainder took 8.7 s;
    # the codes' digest is the one that build gave
    t0 = time.perf_counter()
    dom = build_pair_domain(5, 4, 2, "incident")
    assert time.perf_counter() - t0 < 2
    assert dom.N == gaussian_binomial(5, 2, 4) * gaussian_binomial(3, 2, 4)
    assert hashlib.sha256(dom.codes.tobytes()).hexdigest() == (
        "7fbdc56df0c23d7f0790107a32a09d40b6b84263bcf1977fe3f61774daec75ec")


# A refused build may hold a stack of up to SIZE_CAP partial bases, never
# the Grassmannian: the first case used to ask numpy for 59.3 GiB.
OVERSIZE = {
    "enumerate-9-6-3": lambda: enumerate_subspaces(field_of_order(9), 6, 3),
    "points-21-2": lambda: build_domain({"kind": "projective_points", "d": 21, "q": 2}),
    "subspaces-12-2-3": lambda: build_domain({"kind": "subspaces_k", "d": 12, "q": 2,
                                              "k": 3}),
    "nondeg-8-5-4": lambda: build_domain({"kind": "nondegenerate_k", "form": "symplectic",
                                          "d": 8, "q": 5, "k": 4}),
    "nonsingular-30-2": lambda: build_domain({"kind": "nonsingular_1", "form": "+",
                                              "d": 30, "q": 2}),
    "complement-12-2-1": lambda: build_domain({"kind": "pair_complement", "d": 12,
                                               "q": 2, "k": 1}),
    "incident-12-2-2": lambda: build_domain({"kind": "pair_incident", "d": 12, "q": 2,
                                             "k": 2}),
}


@pytest.mark.parametrize("name", sorted(OVERSIZE))
def test_oversize_subspace_domains_refused_with_bounded_memory(name):
    field_of_order(9), field_of_order(5)     # field tables stay out of the peak
    tracemalloc.start()
    try:
        with pytest.raises(ActionError, match="^size cap exceeded$"):
            OVERSIZE[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**28, peak / 2**20


@pytest.mark.parametrize("desc", [
    {"kind": "subspaces_k", "d": 800, "q": 2, "k": 799},
    {"kind": "nondegenerate_k", "form": "symplectic", "d": 800, "q": 2, "k": 799},
], ids=["subspaces", "nondegenerate"])
def test_near_full_grassmannian_refused_before_its_pivot_patterns(desc):
    # row 0 of a (d-1)-subspace has only (d-1) q + 1 candidates; the stack of
    # its C(d, d-1) pivot patterns once peaked at 523 MiB before the refusal
    field_of_order(2)
    tracemalloc.start()
    try:
        with pytest.raises(ActionError, match="^size cap exceeded$"):
            build_domain(desc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**26, peak / 2**20


# Totally singular builds that SIZE_CAP refuses, one for each thing it
# bounds: row 0's candidates, one pattern's partial bases times its
# candidates, the table of the form on held rows and candidates, and the
# partial bases a row keeps.
TS_OVERSIZE = {"row0-Q+(20,2)": ("plus", 20, 2, 1), "pattern-Q+(10,3)": ("plus", 10, 3, 2),
               "table-Q+(12,2)": ("plus", 12, 2, 3), "kept-Q-(12,2)": ("minus", 12, 2, 5)}


@pytest.mark.parametrize("name", sorted(TS_OVERSIZE))
def test_oversize_totally_singular_domains_refused_with_bounded_memory(name):
    form, d, q, k = TS_OVERSIZE[name]
    form = actions._form_from_name(form, d, q)
    tracemalloc.start()
    try:
        with pytest.raises(ActionError, match="^size cap exceeded$"):
            build_totally_singular(form, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**28, peak / 2**20


# name -> (descriptor, N): totally singular domains whose Grassmannians
# exceed SIZE_CAP
HEAVY_TS = {
    "family-Q+(8,3)": ({"kind": "max_isotropic_family", "form": "plus", "d": 8, "q": 3,
                        "k": 4, "family": "greek"},
                       math.prod(3**i + 1 for i in range(4)) // 2),
    "ts5-Q+(10,2)": ({"kind": "totally_singular_k", "form": "plus", "d": 10, "q": 2, "k": 5},
                     math.prod(2**i + 1 for i in range(5))),
    "ts3-Q-(8,3)": ({"kind": "totally_singular_k", "form": "minus", "d": 8, "q": 3, "k": 3},
                    math.prod(3**i + 1 for i in range(2, 5))),
}


@pytest.mark.parametrize("desc,n", list(HEAVY_TS.values()), ids=list(HEAVY_TS))
def test_totally_singular_domains_beyond_the_grassmannian_cap_build(desc, n):
    # their Grassmannians exceed SIZE_CAP, which bounds only what the
    # row-at-a-time build holds
    assert gaussian_binomial(desc["d"], desc["k"], desc["q"]) > actions.SIZE_CAP
    t0 = time.perf_counter()
    dom = build_domain(desc)
    assert time.perf_counter() - t0 < 2
    assert dom.N == n


@pytest.mark.parametrize("name", list(HEAVY_TS))
def test_heavy_totally_singular_builds_stay_under_16_mib(name):
    # the table and the pairs are made in blocks: built whole, the pairs of
    # Q+(10,2) k=5 take the traced peak past 18 MiB
    desc, n = HEAVY_TS[name]
    build_domain(desc)                      # one-time allocations stay out
    tracemalloc.start()
    try:
        dom = build_domain(desc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dom.N == n
    assert peak < 16 * 2**20, peak / 2**20


def test_totally_singular_rows_take_one_stacked_step_each(monkeypatch):
    # Q+(10,2) k=5 has comb(10, 5) = 252 pivot patterns: a form evaluation
    # per pattern and row makes tens of thousands of gf.mul calls, one
    # stacked step per row a few hundred
    from ibiskit import gf
    calls = []
    mul = gf.FiniteField.mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    desc, n = HEAVY_TS["ts5-Q+(10,2)"]
    build_domain(desc)
    monkeypatch.setattr(gf.FiniteField, "mul", counted)
    assert build_domain(desc).N == n
    assert 0 < len(calls) < 1000, len(calls)


@pytest.mark.parametrize("d,q,n", [(3, 2, 7), (2, 5, 6), (4, 3, 40)])
def test_projective_point_counts(d, q, n):
    assert build_subspace_domain(d, q, 1).N == n


def test_totally_singular_counts():
    dom = build_totally_singular(symplectic_form(F2, 4), 2)
    assert dom.N == 15  # (q+1)(q^2+1) at q=2
    dom2 = build_totally_singular(symplectic_form(F2, 6), 1)
    assert dom2.N == 63
    for W in dom.bases()[0]:
        assert brute_totally_singular(dom.form, W)


def test_max_isotropic_family_split():
    Q = quadratic_plus(F2, 6)
    full = build_totally_singular(Q, 3)
    greeks = build_totally_singular(Q, 3, family="greek")
    latins = build_totally_singular(Q, 3, family="latin")
    assert full.N == 30 and greeks.N == 15 and latins.N == 15
    keys = {W.tobytes() for W in greeks.bases()[0]} | \
        {W.tobytes() for W in latins.bases()[0]}
    assert len(keys) == 30
    # same family iff intersection has even codimension; the meet's
    # dimension is read off the size 2^dim of the intersected vector sets
    [G], [L] = greeks.bases(range(5)), latins.bases(range(5))
    for X in G:
        for family, parity in ((G, 0), (L, 1)):
            for Y in family:
                meet = vector_set(F2, X) & vector_set(F2, Y)
                assert (3 - (len(meet).bit_length() - 1)) % 2 == parity


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (4, 2), (4, 3), (4, 4), (6, 2), (6, 3),
                                 (6, 4), (8, 2), (8, 3)])
def test_families_partition_the_maximal_totally_singular_subspaces(d, q):
    # Q+(d, q) has prod (q^i + 1), i < d/2, maximal totally singular
    # subspaces, half in each family
    form = quadratic_plus(field_of_order(q), d)
    k = d // 2
    full = build_totally_singular(form, k)
    greek, latin = (build_totally_singular(form, k, family) for family in ("greek", "latin"))
    assert full.N == math.prod(q**i + 1 for i in range(k))
    assert greek.N == latin.N == full.N // 2
    # distinct (ActionDomain refuses a repeated point) and together all of them
    both = actions.ActionDomain(np.concatenate([greek.codes, latin.codes]), form.field,
                                d, (k,))
    assert np.array_equal(both.codes, full.codes)


def test_family_split_requires_plus_maximal():
    with pytest.raises(ActionError):
        build_totally_singular(symplectic_form(F2, 4), 2, family="greek")
    with pytest.raises(ActionError):
        build_totally_singular(quadratic_plus(F2, 6), 2, family="greek")


def test_witt_index_guard():
    with pytest.raises(ActionError):
        build_totally_singular(quadratic_minus(F4, 4), 2)


# (form name, d, q): every form kind in d <= 6 over q = 2, 3, 4 (hermitian
# over GF(q^2), q = 2, 3), and symplectic d = 4 over q = 5
TS_GRID = ([("symplectic", d, q) for d in (2, 4, 6) for q in (2, 3, 4)]
           + [("symplectic", 4, 5)]
           + [("hermitian", d, q) for d in range(2, 7) for q in (2, 3)]
           + [(sign, d, q) for sign in ("plus", "minus") for d in (2, 4, 6)
              for q in (2, 3, 4) if (sign, d) != ("minus", 2)])


@pytest.mark.parametrize("name,d,q", TS_GRID,
                         ids=[f"{n}-{d}-{q}" for n, d, q in TS_GRID])
def test_totally_singular_rows_match_the_grassmannian_filter(name, d, q):
    """The row-by-row build against the filter of the whole Grassmannian,
    for every k up to the Witt index whose Grassmannian SIZE_CAP admits
    (all but k = 2, 3 of hermitian d = 6 over GF(9)), and both families
    of the maximal totally singular subspaces of a plus-type space."""
    form = actions._form_from_name(name, d, q)
    F = form.field
    for k in range(1, actions.witt_index(form) + 1):
        if gaussian_binomial(d, k, F.q) > actions.SIZE_CAP:
            assert (name, d, q) == ("hermitian", 6, 3)
            continue
        S = enumerate_subspaces(F, d, k)
        ref = actions.ActionDomain(S[linalg.is_totally_singular(form, S)],
                                   F, d, (k,))
        dom = build_totally_singular(form, k)
        assert dom.N > 0 and np.array_equal(dom.codes, ref.codes)
        if name != "plus" or k != d // 2:
            continue
        [R] = ref.bases()
        meet = linalg.rank_stack(F, np.concatenate(
            [np.broadcast_to(R[0], R.shape), R], axis=1)) - k
        for family, parity in (("greek", 0), ("latin", 1)):
            half = build_totally_singular(form, k, family)
            assert half.N == ref.N // 2
            assert np.array_equal(half.codes, ref.codes[meet % 2 == parity])


def test_totally_singular_build_memory_is_bounded():
    # ts3 Q+(6,3): filtering the 33,880 3-subspaces peaks at 11 MiB; the
    # row-by-row build of its 80 planes stays near 0.06 MiB
    import tracemalloc
    form = quadratic_plus(F3, 6)
    build_totally_singular(form, 3)       # one-time allocations stay out
    tracemalloc.start()
    try:
        dom = build_totally_singular(form, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dom.N == 80
    assert peak < 2**19, peak / 2**20


def _pairs_one_member_at_a_time(d, q, k, mode):
    """The pair domain's codes from one rank stack per small member."""
    F = field_of_order(q)
    big = enumerate_subspaces(F, d, d - k)
    span = d if mode == "complement" else d - k
    rows = []
    for W in enumerate_subspaces(F, d, k):
        T = np.concatenate([np.broadcast_to(W, (len(big), k, d)), big], axis=1)
        rows.append(T[linalg.rank_stack(F, T) == span])
    return actions.ActionDomain(np.concatenate(rows), F, d, (k, d - k)).codes


PAIR_GRID = [(3, 2, 1), (3, 3, 1), (3, 4, 1), (4, 2, 1), (4, 3, 1), (4, 4, 1),
             (5, 2, 1), (5, 3, 1), (5, 2, 2)]


@pytest.mark.parametrize("members", [None, 1, 3])
@pytest.mark.parametrize("mode", ["complement", "incident"])
@pytest.mark.parametrize("d,q,k", PAIR_GRID)
def test_pair_domain_blocks_match_one_member_at_a_time(monkeypatch, d, q, k, mode,
                                                       members):
    """Byte-identical codes for any block size: the default, one member a
    block, and three a block (the last block often shorter).  A complement
    block holds a k x k remainder per (small, big) pair, each small member
    against every big one; an incident block the d x d codes of each pair
    inside its big members."""
    if members:
        monkeypatch.setattr(actions, "PAIR_CODES", members * (
            gaussian_binomial(d, d - k, q) * k * k if mode == "complement"
            else gaussian_binomial(d - k, k, q) * d * d))
    dom = build_pair_domain(d, q, k, mode)
    assert dom.codes.tobytes() == _pairs_one_member_at_a_time(d, q, k, mode).tobytes()


@pytest.mark.parametrize("sign,d,q,n", [
    ("-", 4, 4, 68), ("+", 4, 4, 60), ("+", 6, 2, 28), ("-", 6, 2, 36)])
def test_nonsingular_counts(sign, d, q, n):
    F = field_of_order(q)
    form = quadratic_plus(F, d) if sign == "+" else quadratic_minus(F, d)
    dom = build_nonsingular_points(form)
    assert dom.N == n
    m = d // 2
    assert n == q**(m - 1) * (q**m - (1 if sign == "+" else -1))


def test_nonsingular_rejects_odd_q():
    with pytest.raises(ActionError):
        build_nonsingular_points(linalg.FormSpec(
            "quadratic", F3, np.triu(np.ones((4, 4), dtype=np.int64))))


def test_pair_domain_complement_336():
    dom = build_pair_domain(3, 4, 1, "complement")
    assert dom.N == 336
    F = dom.field
    for W, U in zip(*dom.bases()):
        assert vector_set(F, W) & vector_set(F, U) == {(0, 0, 0)}


def test_pair_domain_incident_flags():
    dom = build_pair_domain(4, 2, 1, "incident")
    assert dom.N == 105  # 15 points x 7 hyperplanes through each
    per_point = {}
    for W, U in zip(*dom.bases()):
        assert vector_set(F2, W) <= vector_set(F2, U)
        per_point[W.tobytes()] = per_point.get(W.tobytes(), 0) + 1
    assert set(per_point.values()) == {7}


def test_pair_domain_guards():
    with pytest.raises(ActionError):
        build_pair_domain(4, 2, 2, "complement")
    with pytest.raises(ActionError):
        build_pair_domain(4, 2, 1, "nonsense")


@pytest.mark.parametrize("m,q,np_,nm", [
    (1, 2, 3, 1), (1, 4, 10, 6), (1, 8, 36, 28), (2, 2, 10, 6), (2, 4, 136, 120)])
def test_quad_forms_domain_sizes(m, q, np_, nm):
    assert build_quad_forms_domain(m, q, "+").N == np_ == q**m * (q**m + 1) // 2
    assert build_quad_forms_domain(m, q, "-").N == nm == q**m * (q**m - 1) // 2
    assert np_ + nm == q ** (2 * m)


def test_quad_forms_rejects_odd_q():
    with pytest.raises(ActionError):
        build_quad_forms_domain(2, 3, "+")


@pytest.mark.parametrize("sign", [1, -1, "plus", "minus", None])
def test_quad_forms_sign_is_plus_minus_or_none(sign):
    with pytest.raises(ActionError, match="unknown sign"):
        build_quad_forms_domain(1, 4, sign)


def test_nondegenerate_domain_sp42():
    form = symplectic_form(F2, 4)
    dom = build_nondegenerate_domain(form, 2)
    # 35 total = 15 totally singular + 20 non-degenerate; nothing between
    assert dom.N == 20
    ts = build_totally_singular(form, 2)
    assert dom.N + ts.N == gaussian_binomial(4, 2, 2)
    for W in dom.bases()[0]:
        assert brute_nondegenerate(form, W)


def test_nondegenerate_domain_sp62_oracle():
    form = symplectic_form(F2, 6)
    dom = build_nondegenerate_domain(form, 2)
    brute = sum(1 for B in enumerate_subspaces(F2, 6, 2)
                if brute_nondegenerate(form, B))
    assert dom.N == brute == 336


# (kind, form, q) -> (builds, sha256 of build_domain(desc).codes over the
# grid below, d then k ascending; a refused descriptor adds its error text):
# the codes each build gave while it still masked its whole stack of
# candidates.  Left out: the two builds that took over 1 s then.
FILTERED_SLOW = {("plus", 6, 5, 4), ("minus", 6, 5, 4)}
FILTERED_DIGESTS = {
    ("nondegenerate_k", "symplectic", 2):
        (9, "e832ad2ca1934ccd547d50131da08d9b732e053ecd4f6f7f25e610567bbb008b"),
    ("nondegenerate_k", "symplectic", 3):
        (9, "07639cf8a146aef3e1abc4b0b2771972e25e80a6322c7c1c8734a3c5ff7e0d36"),
    ("nondegenerate_k", "symplectic", 4):
        (9, "df4e97c726d3620dec9f29b6653d69cf76f8d2b1dea3a6e06232433266c24997"),
    ("nondegenerate_k", "symplectic", 5):
        (8, "db64cda266a151f52301dbcc8a67036f8b7fd133df8ea02711565bde66c93fa9"),
    ("nondegenerate_k", "hermitian", 2):
        (15, "64bf999715ee40d5593f69e74def2bbb19a57f1f248e7b07f5d69d5750c7038e"),
    ("nondegenerate_k", "hermitian", 3):
        (12, "301d31a0bd505b5dd1ed5c2a91bc5f58e921bd66a310246d9872f2fcfb0deba5"),
    ("nondegenerate_k", "hermitian", 4):
        (8, "33ad63d87d28b70445c9ad22827f88f4b6aa9a858b94a186b90a7072bde5566d"),
    ("nondegenerate_k", "hermitian", 5):
        (8, "6704d7ad7fe97fad8e3605a0390a7db97b6d355333623c535915af0e9665596c"),
    ("nondegenerate_k", "plus", 2):
        (9, "4be10a0ba0e94716271065e9548a157bfc0f7ff80c366367c39ebe9b4172b786"),
    ("nondegenerate_k", "plus", 3):
        (9, "8d6eddfa30f05ab4a26983df635969adfd2055a15faf6e697f4ede061e52adab"),
    ("nondegenerate_k", "plus", 4):
        (9, "fb312edd6e7a5f5bf261b1f671cdd6a41bc220382988a1b78b438eef6a0a39f8"),
    ("nondegenerate_k", "plus", 5):
        (7, "34f02e07699242c2603bb3ec5038076fc64acbd9eb3d98ee459813d085207690"),
    ("nondegenerate_k", "minus", 2):
        (9, "b97e07e00092570a727d1f55a9aa00868623d5ef1cd07792491412cd91f7677b"),
    ("nondegenerate_k", "minus", 3):
        (9, "ef9766271b7c10b9b44dc6a8011e4daf80ef6e924f96c8430fc122019aad725f"),
    ("nondegenerate_k", "minus", 4):
        (9, "57f41dcc630803c690be5fbb83e9000cd40b704f6e4b89395e5fc53a8326921d"),
    ("nondegenerate_k", "minus", 5):
        (7, "f492e890dea7d8ec701ce495c80d9cf8d3c80eed0b26c978eec4e3d4ae8efd42"),
    ("nonsingular_1", "plus", 2):
        (4, "1f160ed1d918f427e93cefbde37f5c628d4f6da909094065395a3be5668fd20e"),
    ("nonsingular_1", "plus", 4):
        (4, "cf2a161321d1f61a471bf6556103d9c2b00bb11fb96ccb4e5cb9f9f8e4ca6799"),
    ("nonsingular_1", "plus", 8):
        (3, "2c7e16c671570e37b895f02754a2bfb52d99f088ce727b3ce4ffbf9b52632a71"),
    ("nonsingular_1", "minus", 2):
        (4, "af490e50af8ebb515c57eb6a4c8f12b5b5eb91ee35b08d6ae4fe0b3792abf287"),
    ("nonsingular_1", "minus", 4):
        (4, "b74f7990d7324bf4c826636ce29035e46dd17746628c5640e68957a8bb295235"),
    ("nonsingular_1", "minus", 8):
        (3, "d64dc48fef87a789d4dc34336ba6a80856a83ed7edfaec45217c1d89f62dc2e8"),
}


def filtered_grid(kind, form, q):
    """The descriptors of one FILTERED_DIGESTS entry: nondegenerate_k at
    2 <= d <= 6, 1 <= k < d, and nonsingular_1 at d in (2, 4, 6, 8)."""
    if kind == "nonsingular_1":
        return [{"kind": kind, "form": form, "d": d, "q": q} for d in (2, 4, 6, 8)]
    return [{"kind": kind, "form": form, "d": d, "q": q, "k": k}
            for d in range(2, 7) for k in range(1, d)
            if (form, d, q, k) not in FILTERED_SLOW]


def filtered_digest(kind, form, q):
    built, digest = 0, hashlib.sha256()
    for desc in filtered_grid(kind, form, q):
        try:
            digest.update(build_domain(desc).codes.tobytes())
            built += 1
        except ValueError as exc:       # odd d, or over SIZE_CAP
            digest.update(str(exc).encode())
    return built, digest.hexdigest()


@pytest.mark.parametrize("kind,form,q", sorted(FILTERED_DIGESTS))
def test_filtered_domain_codes_are_pinned(kind, form, q):
    assert filtered_digest(kind, form, q) == FILTERED_DIGESTS[kind, form, q]


def test_nondegenerate_build_holds_only_blocks_of_its_candidates():
    # Sp(6,4) k=2 keeps 69,888 of its 93,093 planes; masking the whole
    # stack of them peaked at 23.0 MiB traced
    desc = {"kind": "nondegenerate_k", "form": "symplectic", "d": 6, "q": 4, "k": 2}
    field_of_order(4)                       # field tables stay out of the peak
    tracemalloc.start()
    try:
        dom = build_domain(desc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dom.N == 69888
    assert peak < 18 * 2**20, peak / 2**20


def _some_form(F, d):
    """The symplectic form at even d, else Q(x) = sum of x_i x_j, i <= j."""
    return (symplectic_form(F, d) if d % 2 == 0
            else linalg.FormSpec("quadratic", F, np.triu(np.ones((d, d), dtype=np.int64))))


# name -> mask(F, d, k): a mask over (n, k, d) stacks of bases
ADMIT_MASKS = {
    "none": lambda F, d, k: lambda B: np.zeros(len(B), dtype=bool),
    "all": lambda F, d, k: lambda B: np.ones(len(B), dtype=bool),
    "digits": lambda F, d, k: lambda B: (
        B.reshape(len(B), -1) @ np.arange(1, k * d + 1)) % 3 == 1,
    "nondegenerate": lambda F, d, k: functools.partial(linalg.is_nondegenerate,
                                                       _some_form(F, d)),
    "nonsingular": lambda F, d, k: lambda B: linalg.eval_quadratic_batch(
        linalg.FormSpec("quadratic", F, np.eye(d, dtype=np.int64)), B[:, 0]) != 0,
}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([2, 3, 4, 5]), d=st.integers(2, 5), data=st.data())
@example(q=3, d=4, data=None)
def test_admitted_bases_are_the_masked_stack(q, d, data):
    """enumerate_subspaces(F, d, k, admit=m) is S[m(S)] for the whole stack
    S, in S's order, while m sees blocks of about PAIR_CODES codes.  The
    example is k = 1 under a symplectic form: no Gram entry lies above the
    diagonal and every point is degenerate."""
    k, mask, codes = (1, "nondegenerate", 8) if data is None else (
        data.draw(st.integers(1, d - 1)), data.draw(st.sampled_from(sorted(ADMIT_MASKS))),
        data.draw(st.sampled_from([1, 16, 100, 1 << 16])))
    F = field_of_order(q)
    admit = ADMIT_MASKS[mask](F, d, k)
    S = enumerate_subspaces(F, d, k)
    blocks = []

    def seen(B):
        blocks.append(len(B))
        return admit(B)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(actions, "PAIR_CODES", codes)
        T = enumerate_subspaces(F, d, k, admit=seen)
    assert T.dtype == S.dtype and T.tobytes() == S[admit(S)].tobytes()
    assert T.shape[1:] == S.shape[1:]
    step = max(1, codes // (k * d))
    assert blocks == [min(step, len(S) - a) for a in range(0, len(S), step)]
    if data is None:
        assert len(S) and not len(T)


def test_induce_identity():
    spec = GroupSpec("SL", 3, 2)
    gens, _ = classical_generators(spec)
    dom = build_subspace_domain(3, 2, 1)
    g = (gens[0], 0, False)
    e = compose(F2, g, invert(F2, g))
    assert (induced_rows(dom, [e])[0] == np.arange(dom.N)).all()


def test_induced_homomorphism_random_pairs():
    spec = GroupSpec("Sp", 4, 4)
    gens, _ = classical_generators(spec)
    phi = outer_element("frob", spec)
    dom = build_quad_forms_domain(2, 4, "+")
    rng = random.Random(31)
    pool = [(M, 0, False) for M in gens[:8]] + [phi]
    for _ in range(12):
        a, b = pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))]
        # compose(a, b) acts as a, then b: its images are b's images of a's
        pa, pb, pab = induced_rows(dom, [a, b, compose(F4, a, b)])
        assert np.array_equal(pab, pb[pa])


@pytest.mark.parametrize("extensions,digest", [
    (("frob", "dual"),
     "95f5ae49a640c5c4cbdfb39e41c31725449068c47dcc771cc56e15c2e0a30292"),
    (("dual", "frob"),
     "2971c68f77b1f01e6610cafe3f06c9db9d77dfbaf672e80f086d2cb2e7401124"),
])
def test_one_generator_row_per_extension_in_spec_order(capsys, extensions, digest):
    # SL4(4) on its 2-spaces: the socle rows, then one row per outer
    # element in the spec's order, which `dump-group` prints unchanged
    spec = GroupSpec("SL", 4, 4, extensions)
    action = {"kind": "subspaces_k", "d": 4, "q": 4, "k": 2}
    dom = build_domain(action)
    G = build_group_action(spec, dom)
    outer = induced_rows(dom, [outer_element(ext, spec) for ext in extensions])
    assert np.array_equal(G.generators[-2:], outer)
    assert main(["dump-group", "--group", json.dumps(spec.serialize()),
                 "--action", json.dumps(action)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_induced_homomorphism_on_pairs_domain_with_duality():
    spec = GroupSpec("SL", 3, 2)
    gens, _ = classical_generators(spec)
    iota = outer_element("dual", spec)
    dom = build_pair_domain(3, 2, 1, "complement")
    assert dom.N == 28
    [pi] = induced_rows(dom, [iota])
    assert (pi[pi] == np.arange(dom.N)).all()
    for M in gens[:4]:
        g = (M, 0, False)
        lhs, pg = induced_rows(dom, [compose(F2, compose(F2, iota, g), iota), g])
        assert np.array_equal(lhs, pi[pg[pi]])


@pytest.mark.parametrize("d,q,k,mode,n", [
    (3, 2, 1, "complement", 7), (3, 4, 1, "complement", 21),
    (4, 2, 1, "incident", 15), (5, 2, 2, "complement", 155),
    (5, 2, 2, "incident", 155)])
def test_pair_members_are_the_distinct_member_bases(d, q, k, mode, n):
    # each member position takes every subspace of its dimension, once,
    # and B[at] gives back bases()'s stack
    dom = build_pair_domain(d, q, k, mode)
    for (B, at), stack in zip(dom.members(), dom.bases(), strict=True):
        assert len(B) == n == len({b.tobytes() for b in B})
        assert at.shape == (dom.N,) and np.array_equal(B[at], stack)


@pytest.mark.parametrize("dual", [False, True])
def test_pair_induction_by_members_matches_induction_by_pairs(dual):
    # acting on each distinct member once gives the image rows of acting
    # on both members of every pair
    spec = GroupSpec("SL", 3, 4, ("frob",))
    dom = build_pair_domain(3, 4, 1, "complement")
    F = dom.field
    M, _ = classical_generators(spec)
    frob = 1 if dual else 0
    parts = [actions._act_subspaces(F, M, frob, dual, B) for B in dom.bases()]
    if dual:
        parts.reverse()
    rows = np.concatenate([P.reshape(len(M) * dom.N, -1) for P in parts], axis=1)
    expected = dom.indices(rows).reshape(len(M), dom.N)
    assert np.array_equal(induce_images(M, frob, dual, dom), expected)


def test_forms_action_transvection_formula():
    # theta_eps^{t_{e2}} = theta_{eps+e2} on the minus domain at m=2, q=2
    dom = build_quad_forms_domain(2, 2, "-")
    F = F2
    eps = np.array([1, 0, 1, 0])  # eps.e1 + e3 with eps = 1, m = 2
    assert trace_bit(F, theta_value(dom, np.zeros(4, int), eps)) == 1
    t = transvection_symplectic(np.array([0, 1, 0, 0]), symplectic_form(F, 4))
    [pi] = induce_images(t[None], 0, False, dom)
    i_eps = dom.index_of(eps)
    i_img = dom.index_of(np.array([1, 1, 1, 0]))
    assert pi[i_eps] == i_img


def test_forms_action_conjugation_law_exhaustive_22():
    # theta_a^{t_c} = theta_{a + (sqrt(theta_a(c)) + 1) c} for all a, c != 0
    F = F2
    dom = all_quad_forms_domain(2, 2)
    assert dom.N == 16
    form = symplectic_form(F, 4)
    vecs = linalg.all_row_vectors(F, 4)
    for c in vecs:
        if not c.any():
            continue
        t = transvection_symplectic(c, form)
        [pi] = induce_images(t[None], 0, False, dom)
        for a in vecs:
            val = theta_value(dom, a, c)
            root = int(F.frob(val, F.f - 1))
            coeff = int(F.add(root, 1))
            expected = F.add(a, F.mul(coeff, c))
            assert pi[dom.index_of(a)] == dom.index_of(expected)


def test_socle_transitive_on_acceptance_domains():
    cases = [
        (GroupSpec("SL", 3, 2), build_subspace_domain(3, 2, 1)),
        (GroupSpec("Sp", 4, 3), build_totally_singular(symplectic_form(F3, 4), 2)),
        (GroupSpec("OmegaMinus", 4, 4),
         build_nonsingular_points(quadratic_minus(F4, 4))),
        (GroupSpec("Sp", 2, 8), build_quad_forms_domain(1, 8, "-")),
    ]
    for spec, dom in cases:
        G = build_group_action(spec, dom)
        assert (G.orbits() == 0).all()


def test_forms_trace_classes_are_socle_orbits():
    # Sp4(2) on all 16 forms: orbits are the trace classes, sizes 10 and 6
    dom = all_quad_forms_domain(2, 2)
    G = build_group_action(GroupSpec("Sp", 4, 2), dom)
    counts = np.bincount(G.orbits())
    assert sorted(counts[counts > 0].tolist()) == [6, 10]


def test_derived_group_action():
    dom = build_subspace_domain(4, 2, 1)  # nonzero vectors of F_2^4
    G = build_group_action(GroupSpec("Sp", 4, 2, derived=True), dom)
    assert G.order() == 360


def test_induced_order_examples():
    # scalars act trivially: the induced group is the projective one
    dom = build_subspace_domain(4, 3, 1)
    G = build_group_action(GroupSpec("Sp", 4, 3), dom)
    assert G.order() == 25920  # PSp_4(3)
    delta = outer_element("diag", GroupSpec("Sp", 4, 3))
    [pd] = induced_rows(dom, [delta])
    assert not G.is_member(pd)
    G2 = build_group_action(GroupSpec("Sp", 4, 3, extensions=("diag",)), dom)
    assert G2.order() == 51840


@pytest.mark.parametrize("family,d,q,order", [("SL", 3, 4, 60480), ("SL", 2, 9, 720)])
def test_linear_diag_induces_the_projective_general_linear_group(family, d, q, order):
    # diag(alpha, 1, ..., 1) has every determinant, so with SL it induces
    # PGL_d(q) on the points, of order |GL_d(q)| / (q - 1)
    dom = build_subspace_domain(d, q, 1)
    G = build_group_action(GroupSpec(family, d, q, ("diag",)), dom)
    assert G._order_bound is None       # the diag matrix is not the identity
    assert G.order() == order == math.prod(q**d - q**i for i in range(d)) // (q - 1)


@pytest.mark.parametrize("family,d,q,action,order", [
    ("GOminus", 4, 4, "projective_points", 16320),
    ("GOminus", 2, 4, "projective_points", 20),
    ("SOminus", 4, 4, "projective_points", 16320),
    ("GOminus", 4, 9, "projective_points", 1062720),
    ("GOminus", 4, 4, "nonsingular_1", 16320),
])
def test_minus_type_frobenius_extends_by_its_order(family, d, q, action, order):
    # over GF(4) and GF(9) the Frobenius moves the elliptic form; the outer
    # element follows it with a plane matrix, so the socle has index 2
    form = {"form": "-"} if action == "nonsingular_1" else {}
    dom = build_domain({"kind": action, "d": d, "q": q, **form})
    G = build_group_action(GroupSpec(family, d, q, ("frob",)), dom)
    socle = build_group_action(GroupSpec(family, d, q), dom)
    assert G.order() == order == 2 * socle.order()


# The plane entries (a00, a01, a10, a11) of outer_element("frob") of the
# minus-type groups where they are not the identity's, None where it is
# refused, the same for d = 4 and 6; pinned while all q^4 plane matrices
# were tiled at once.
FROB_PLANE = {
    "GOminus": {4: (1, 3, 2, 0), 9: (1, 3, 4, 0), 16: (1, 15, 8, 0), 25: (9, 3, 6, 1)},
    "SOminus": {4: (1, 3, 2, 0), 9: None, 16: (1, 15, 8, 0), 25: None},
    "OmegaMinus": {4: None, 9: None, 16: None, 25: None},
}


@pytest.mark.parametrize("family,d", [
    pytest.param(family, d, marks=[pytest.mark.slow] if d == 6 else [])
    for family in FROB_PLANE for d in (4, 6)])
def test_minus_type_frobenius_plane_matrix_pinned(family, d):
    m = d // 2
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25):
        plane = FROB_PLANE[family].get(q, (1, 0, 0, 1))
        if plane is None:
            with pytest.raises(GroupError, match="no outer element frob:1"):
                outer_element("frob", GroupSpec(family, d, q))
            continue
        A, k, dual = outer_element("frob", GroupSpec(family, d, q))
        expected = np.eye(d, dtype=np.int64)
        expected[[[m - 1], [d - 1]], [m - 1, d - 1]] = np.reshape(plane, (2, 2))
        assert A.dtype == np.int64 and np.array_equal(A, expected), q
        assert (k, dual) == (1 % field_of_order(q).f, False)


@pytest.mark.parametrize("family", ["GOminus", "OmegaMinus"])
def test_minus_type_frobenius_scan_stays_under_16_mib(family):
    # tiled at once, the 25^4 plane matrices peaked at 238 MiB; OmegaMinus
    # tries them all
    spec = GroupSpec(family, 4, 25)
    spec.matrix_field()                 # one-time allocations stay out
    tracemalloc.start()
    try:
        try:
            outer_element("frob", spec)
        except GroupError:
            assert family == "OmegaMinus"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


@pytest.mark.parametrize("family,d,q", [
    ("OmegaMinus", 2, 4), ("OmegaMinus", 4, 4), ("OmegaMinus", 4, 16),
    ("SOminus", 2, 9), ("SOminus", 4, 9),
])
def test_minus_type_frobenius_refused_where_no_plane_matrix_exists(family, d, q):
    # (frob . A)^f leaves the group for every plane matrix A carrying the
    # twisted form back, so the group has no field automorphism of order f
    with pytest.raises(GroupError, match="no outer element frob:1"):
        outer_element("frob", GroupSpec(family, d, q))


def test_omega_minus_transitive_68():
    dom = build_nonsingular_points(quadratic_minus(F4, 4))
    G = build_group_action(GroupSpec("OmegaMinus", 4, 4), dom)
    assert dom.N == 68
    assert (G.orbits() == 0).all()
    assert G.order() == 4080


def test_induce_rejects_non_invariant_domain():
    # a general linear transvection does not preserve total singularity,
    # so inducing it on the symplectic line domain must fail loudly
    from ibiskit.actions import ActionError
    dom = build_totally_singular(symplectic_form(F2, 4), 2)
    bad_gens, _ = classical_generators(GroupSpec("SL", 4, 2))
    with pytest.raises(ActionError):
        for g in bad_gens:
            induce_images(g[None], 0, False, dom)


def test_forms_action_functional_oracle():
    # the induced parameter map realizes theta^g(u) = (theta(u g^{-1}))^sigma
    # as an identity of functions on V
    for (m, q, exhaustive) in [(2, 2, True), (2, 4, False)]:
        F = field_of_order(q)
        dom = all_quad_forms_domain(m, q)
        spec = GroupSpec("Sp", 2 * m, q)
        gens, _ = classical_generators(spec)
        pool = [(M, 0, False) for M in gens[:6]]
        if F.f > 1:
            pool.append(outer_element("frob", spec))
            pool.append(compose(F, pool[0], outer_element("frob", spec)))
        rng = random.Random(19)
        vs = linalg.all_row_vectors(F, 2 * m)
        for g in pool:
            [pi] = induced_rows(dom, [g])
            ginv = invert(F, g)
            for _ in range(6):
                a = vs[rng.randrange(len(vs))]
                img = dom.codes[pi[dom.index_of(a)]]
                us = vs if exhaustive else [vs[rng.randrange(len(vs))]
                                            for _ in range(25)]
                for u in us:
                    moved = move_vectors(F, ginv, u[None, :])[0]
                    expected = int(F.frob(theta_value(dom, a, moved), g[1]))
                    assert theta_value(dom, img, u) == expected


def test_unitary_isotropic_domains():
    # SU4(2): 45 isotropic points and 27 totally singular lines, with the
    # induced group of full projective-unitary order, transitive on both
    E = make_field(2, 2)
    h = linalg.hermitian_form(E, 4)
    pts = build_totally_singular(h, 1)
    lines = build_totally_singular(h, 2)
    assert pts.N == 45 and lines.N == 27
    for dom in (pts, lines):
        G = build_group_action(GroupSpec("SU", 4, 2), dom)
        assert G.order() == 25920
        assert (G.orbits() == 0).all()


def test_domain_descriptor_roundtrip():
    from ibiskit.actions import build_domain
    dom = build_domain({"kind": "quad_forms_minus", "m": 1, "q": 8})
    assert dom.N == 28
    dom2 = build_domain({"kind": "totally_singular_k", "form": "symplectic",
                         "d": 4, "q": 3, "k": 2})
    assert dom2.N == 40
    dom3 = build_domain({"kind": "nonsingular_1", "form": "-", "d": 4, "q": 4})
    assert dom3.N == 68


# One valid descriptor per domain kind, the keys it reads as the refusal
# messages list them, and its N from the counting formulas.
KIND_EXAMPLES = {
    "projective_points": ({"d": 3, "q": 2}, "kind, d, q", 7),
    "subspaces_k": ({"d": 4, "q": 2, "k": 2}, "kind, d, q, k", 35),
    "totally_singular_k": ({"form": "symplectic", "d": 4, "q": 3, "k": 2},
                           "kind, form, d, q, k", 40),
    "max_isotropic_family": ({"form": "plus", "d": 4, "q": 2, "k": 2, "family": "greek"},
                             "kind, form, d, q, k, family", 3),
    "nonsingular_1": ({"form": "-", "d": 4, "q": 4}, "kind, form, d, q", 68),
    "pair_complement": ({"d": 3, "q": 2, "k": 1}, "kind, d, q, k", 28),
    "pair_incident": ({"d": 3, "q": 2, "k": 1}, "kind, d, q, k", 21),
    "quad_forms_plus": ({"m": 1, "q": 4}, "kind, m, q", 10),
    "quad_forms_minus": ({"m": 1, "q": 4}, "kind, m, q", 6),
    "nondegenerate_k": ({"form": "symplectic", "d": 4, "q": 2, "k": 2},
                        "kind, form, d, q, k", 20),
}


def test_kind_examples_cover_the_table():
    assert set(KIND_EXAMPLES) == set(actions.DOMAIN_KINDS)


@pytest.mark.parametrize("kind", sorted(KIND_EXAMPLES))
def test_each_kind_reads_exactly_its_keys(kind):
    params, reads, n = KIND_EXAMPLES[kind]
    assert build_domain({"kind": kind, **params}).N == n
    with pytest.raises(ActionError) as exc:
        build_domain({"kind": kind, **params, "extra": 1})
    assert str(exc.value) == (f"action descriptor {kind!r} has key 'extra', which it "
                              f"does not read; it reads: {reads}")
    for key in params:
        desc = {"kind": kind, **params}
        del desc[key]
        with pytest.raises(ActionError) as exc:
            build_domain(desc)
        assert str(exc.value) == f"action descriptor {kind!r} is missing {key!r}"
