"""The proven order bound of an induced classical group.

build_group_action gives each non-derived group an upper bound on its
order, which its chain with no prefix targets.  On a grid of specs the
bound must be at least the order of the chain closed with no target,
and the chain built towards it must equal that chain level by level.
Where the bound is exact, no closure pass runs at all.
"""

import numpy as np
import pytest

from conftest import ACTIONS
from ibiskit import perm
from ibiskit.actions import _order_bound, build_domain, build_group_action
from ibiskit.groups import GroupSpec, SemilinearElement, classical_generators


def _pp(d, q):
    return {"kind": "projective_points", "d": d, "q": q}


def _ts(form, d, q, k):
    return {"kind": "totally_singular_k", "form": form, "d": d, "q": q, "k": k}


def _grid():
    """(family, d, q, extensions, action, expected bound): 'exact' where
    the bound is the order, 'loose' where it exceeds it, None where the
    checks refuse it."""
    out = []
    for fam in ("GL", "SL"):
        for d, q in ((2, 3), (2, 4), (2, 8), (3, 2), (3, 4), (4, 3), (5, 2), (6, 2)):
            out.append((fam, d, q, (), _pp(d, q), "exact"))
        out.append((fam, 2, 9, ("frob",), _pp(2, 9), "exact"))
        out.append((fam, 3, 4, ("frob",), _pp(3, 4), "exact"))
        # on PG(1, q) the duality acts as an element of PGL2(q)
        out.append((fam, 2, 4, ("dual",), _pp(2, 4), "loose"))
        for d, q, k in ((4, 2, 2), (4, 3, 2), (5, 2, 2)):
            out.append((fam, d, q, (), {"kind": "subspaces_k", "d": d, "q": q, "k": k},
                        "exact"))
        for ext in (("dual",), ("frob",)):
            out.append((fam, 4, 4, ext, {"kind": "subspaces_k", "d": 4, "q": 4, "k": 2},
                        "exact"))
        out.append((fam, 3, 4, ("dual",),
                    {"kind": "pair_complement", "d": 3, "q": 4, "k": 1}, "exact"))
    for d, q in ((2, 4), (2, 8), (4, 2), (4, 3), (4, 4), (6, 2)):
        for ext in ((), ("frob",)) if q in (4, 8) else ((),):
            out.append(("Sp", d, q, ext, _pp(d, q), "exact"))
            out.append(("Sp", d, q, ext, _ts("symplectic", d, q, d // 2), "exact"))
            if q % 2 == 0:
                for kind in ("quad_forms_plus", "quad_forms_minus"):
                    out.append(("Sp", d, q, ext, {"kind": kind, "m": d // 2, "q": q},
                                "exact"))
    for fam in ("GU", "SU"):
        for d, q in ((3, 2), (3, 3), (4, 2)):
            for ext in ((), ("frob",), ("frob:2",)):
                out.append((fam, d, q, ext, _pp(d, q * q), "exact"))
                out.append((fam, d, q, ext, _ts("hermitian", d, q, 1), "exact"))
    for sign in ("plus", "minus"):
        ns = lambda d, q: {"kind": "nonsingular_1", "form": sign, "d": d, "q": q}
        for fam in ("GO" + sign, "SO" + sign, "Omega" + sign.capitalize()):
            for d, q in ((2, 4), (2, 8), (4, 2), (4, 3), (4, 4), (6, 2)):
                if fam.startswith("Omega") and q % 2:
                    continue
                # O+(4, 2) is not generated by reflections
                small = "loose" if (d, q, sign) == (4, 2, "plus") else "exact"
                out.append((fam, d, q, (), _pp(d, q), small))
                if d > 2:
                    out.append((fam, d, q, (), _ts("quadratic_" + sign, d, q, 1), small))
                if q % 2 == 0:
                    out.append((fam, d, q, (), ns(d, q), small))
            out.append((fam, 2, 8, ("frob",), _pp(2, 8), "exact"))
            out.append((fam, 4, 4, ("frob",), _pp(4, 4),
                        # over GF(4) the minus form is not Frobenius-fixed, so
                        # the Frobenius twists of its isometries leave X
                        "exact" if sign == "plus" else None))
            out.append((fam, 2, 4, ("frob",), _pp(2, 4), "exact" if sign == "plus" else None))
    return out


GRID = _grid()


def _levels(ch):
    return [(lvl.beta, [g.tobytes() for g in lvl.gens]) for lvl in ch.levels]


@pytest.mark.parametrize("family,d,q,ext,action,expected", GRID,
                         ids=[f"{f}{d}_{q}{''.join('.' + e for e in x)}/{a['kind']}"
                              for f, d, q, x, a, _ in GRID])
def test_bound_built_chain_matches_the_closure(family, d, q, ext, action, expected):
    G = build_group_action(GroupSpec(family, d, q, ext), build_domain(action))
    bound = G._order_bound
    closed = perm._Chain(G.degree, G.generators, rattle=0)
    reached = perm._Chain(G.degree, G.generators, known_order=bound, rattle=0)
    assert bound is None or bound >= closed.order()
    assert reached.order() == closed.order() == G.order()
    assert _levels(reached) == _levels(closed)
    if expected is None:
        assert bound is None
    else:
        assert (bound == closed.order()) == (expected == "exact")


def test_no_bound_for_derived_diag_or_two_extensions():
    dom = build_domain(_pp(4, 4))
    for spec in (GroupSpec("Sp", 4, 4, derived=True), GroupSpec("Sp", 4, 4, ("diag",)),
                 GroupSpec("SL", 4, 4, ("frob", "dual"))):
        gens, form = classical_generators(spec)
        assert _order_bound(spec, gens, form, dom) is None


def test_no_bound_when_a_generator_leaves_the_matrix_group():
    spec = GroupSpec("Sp", 4, 3)
    dom = build_domain(_pp(4, 3))
    gens, form = classical_generators(spec)
    assert _order_bound(spec, gens, form, dom) == 25920
    M = np.eye(4, dtype=np.int64)
    M[0, 1] = 1                     # a transvection of SL4(3) that moves the form
    extra = SemilinearElement(dom.field, M, _trusted=True)
    assert _order_bound(spec, gens + [extra], form, dom) is None


def _count_closures(monkeypatch):
    """A list that gets an entry for every closure pass of a chain."""
    calls = []
    close = perm._Chain._close

    def counted(self, i):
        if i == 0:
            calls.append(self.degree)
        return close(self, i)

    monkeypatch.setattr(perm._Chain, "_close", counted)
    return calls


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_no_closure_pass_on_the_tested_actions(monkeypatch, name):
    gdesc, adesc = ACTIONS[name]
    spec = GroupSpec.deserialize(gdesc)
    dom = build_domain(adesc)
    calls = _count_closures(monkeypatch)
    G = build_group_action(spec, dom)
    built = len(calls)
    G.order()
    if spec.derived:                # derived groups close as before
        assert built and G._order_bound is None
    else:
        assert calls == [] and G.order() == G._order_bound
