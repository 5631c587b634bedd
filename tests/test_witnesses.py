import pytest

from ibiskit import witnesses
from ibiskit.actions import (
    build_group_action, build_projective_points, build_totally_singular,
)
from ibiskit.gf import field_of_order
from ibiskit.groups import GroupSpec
from ibiskit.ibis import is_irredundant
from ibiskit.linalg import symplectic_form
from ibiskit.witnesses import CATALOG, WitnessError, run_witness


def test_catalog_keys():
    assert set(CATALOG) == {"L3.2", "L3.3", "L3.13", "L3.14", "L6.1",
                            "P5.1", "P7.2-q2"}


def test_unknown_lemma_id():
    with pytest.raises(WitnessError):
        run_witness("L9.99")


def test_projective_chains_reject_q2():
    with pytest.raises(WitnessError):
        run_witness("L3.2", d=3, q=2)


def test_symplectic_points_reject_small_q():
    with pytest.raises(WitnessError):
        run_witness("L3.13", q=2)


def test_report_shape():
    rep = run_witness("L3.2", d=3, q=3)
    assert rep["lemma"] == "L3.2"
    assert rep["params"]["degree"] == 13
    assert isinstance(rep["checks"], list) and rep["checks"]
    for c in rep["checks"]:
        assert set(c) >= {"claim", "ok"}
    assert rep["ok"] == all(c["ok"] for c in rep["checks"])


def test_two_subspaces_requires_d4():
    with pytest.raises(WitnessError):
        run_witness("L3.3", d=5)


def test_symplectic_lines_seeded_search_deterministic():
    a = run_witness("L3.14", q=3, seed=11)
    b = run_witness("L3.14", q=3, seed=11)
    assert a == b and a["ok"]


def test_quadratic_forms_witness_rejects_odd_q():
    with pytest.raises(WitnessError):
        run_witness("P5.1", m=2, q=3)


def test_nondegenerate_pair_other_prime():
    # the construction goes through at q = 5 as well (1 + 2^2 = 5 != 0)
    rep = run_witness("L6.1", d=4, q=5)
    assert rep["ok"], rep


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_projective_chains_guard_refuses_exactly_where_they_fail(d, q):
    if q > 2 and (d, q) != (3, 4):
        assert run_witness("L3.2", d=d, q=q)["ok"]
        return
    with pytest.raises(WitnessError):
        run_witness("L3.2", d=d, q=q)
    # the refused parameters are those where the chain of length 5 has a
    # redundant point
    dom = build_projective_points(d, q)
    G = build_group_action(GroupSpec("SL", d, q), dom)
    assert not is_irredundant(G, witnesses._projective_chains(dom, d)[1])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_symplectic_lines_guard_refuses_exactly_where_they_fail(q):
    if q >= 3:
        assert run_witness("L3.14", q=q)["ok"]
        return
    with pytest.raises(WitnessError):
        run_witness("L3.14", q=q)
    dom = build_totally_singular(symplectic_form(field_of_order(q), 4), 2)
    G = build_group_action(GroupSpec("Sp", 4, q), dom)
    assert not is_irredundant(G, witnesses._symplectic_lines(dom))
