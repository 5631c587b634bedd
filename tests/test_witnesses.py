import json

import numpy as np
import pytest

from conftest import vector_set
from ibiskit import witnesses
from ibiskit.actions import (
    build_group_action, build_subspace_domain, build_totally_singular,
)
from ibiskit.cli import main
from ibiskit.gf import field_of_order
from ibiskit.groups import GroupSpec
from ibiskit.ibis import base_report, is_irredundant
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
    # the chains are verified at d = 4 only, so d is no parameter
    assert run_witness("L3.3")["params"]["d"] == 4
    with pytest.raises(WitnessError, match="takes no parameter 'd'"):
        run_witness("L3.3", d=5)


def test_symplectic_lines_report_ignores_seed(capsys):
    reports = [run_witness("L3.14", seed=s) for s in (0, 1, 5, 11)]
    reports.append(run_witness("L3.14"))
    assert main(["witness", "L3.14"]) == 0
    cli_report = json.loads(capsys.readouterr().out)
    assert cli_report.pop("schema") == 2
    assert all(r == cli_report for r in reports) and cli_report["ok"]


def test_symplectic_lines_four_base_spans_and_meets_in_zero():
    # the length-4 base of L3.14, re-checked by brute force over GF(3)^4
    [four] = [c["detail"] for c in run_witness("L3.14")["checks"]
              if c["claim"].startswith("an irredundant base of length 4")]
    assert four == [0, 1, 4, 34]
    F = field_of_order(3)
    dom = build_totally_singular(symplectic_form(F, 4), 2)
    rep = base_report(build_group_action(GroupSpec("Sp", 4, 3), dom), four)
    assert len(rep) == 4 and rep.is_base and rep.is_irredundant
    [B] = dom.bases(four)
    lines = [vector_set(F, W) for W in B]
    assert len(vector_set(F, np.concatenate(B))) == 3**4
    assert set.intersection(*lines) == {(0, 0, 0, 0)}


def test_quadratic_forms_witness_rejects_odd_q():
    with pytest.raises(WitnessError, match="needs even q > 2"):
        run_witness("P5.1", q=3)


def test_nondegenerate_pair_other_prime():
    # the construction goes through at q = 5 as well (1 + 2^2 = 5 != 0)
    rep = run_witness("L6.1", q=5)
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
    dom = build_subspace_domain(d, q, 1)
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
