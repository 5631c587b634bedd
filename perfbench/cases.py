"""Workload case sets and their known answers.

Every expected value below comes from the paper's table, the lemma
statements or a counting formula, never from a recorded run of the code
under test.  A case returns a list of mismatch messages; an empty list
means every output was checked and agreed.  Exceptions are counted as
failures by the caller.

Imports of ibiskit happen inside the case functions so that importing
this module costs nothing and the package is loaded only in the worker.
"""

from __future__ import annotations

import contextlib
import io
import json

# -- reproduce ----------------------------------------------------------------

# name -> (degree, expected base size b); b is the paper's table entry.
# Degrees from the counting formulas: (q^d - 1)/(q - 1) projective points,
# q(q - 1)/2 minus-type forms at m = 1, and the 85 points of PG(3, 4) less
# the (q + 1)^2 = 25 singular points of the plus quadric (60) or the
# q^2 + 1 = 17 of the minus quadric (68).
TABLE_EXPECTED = {
    "SL3(2) proj": (7, 3),
    "SL4(2) proj": (15, 4),
    "Sp4(2) vectors": (15, 4),
    "Sp4(2)' vectors": (15, 3),
    "PGL2(5) line": (6, 3),
    "SL2(4) minus": (6, 3),
    "SL2(8) minus": (28, 3),
    "Om4+(4) ns1": (60, 3),
    "Om4-(4) ns1": (68, 3),
}

# The witness catalog, each lemma at its default parameters.
LEMMAS = ("L3.2", "L3.3", "L3.13", "L3.14", "L6.1", "P5.1", "P7.2-q2")


def table_row_case(name):
    degree, b = TABLE_EXPECTED[name]

    def run(seed):
        from ibiskit import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["table", "--rows", name, "--threads", "1",
                           "--format", "json"])
        if rc != 0:
            return [f"exit code {rc}"]
        rows = json.loads(buf.getvalue())["rows"]
        if len(rows) != 1 or rows[0]["group"] != name:
            return [f"row selection returned {[r['group'] for r in rows]}"]
        row = rows[0]
        bad = []
        if row["degree"] != degree:
            bad.append(f"degree {row['degree']} != {degree}")
        if row["expected_b"] != b:
            bad.append(f"expected_b {row['expected_b']} != {b}")
        if row["computed_b"] != b:
            bad.append(f"computed_b {row['computed_b']!r} contradicts b = {b}")
        if row["verdict"] != f"IBIS({b})":
            bad.append(f"verdict {row['verdict']!r} != IBIS({b})")
        return bad

    return run


def witness_case(lemma):
    def run(seed):
        from ibiskit import witnesses
        # L3.14 is the only entry with a randomized search; it receives
        # the workload seed, as `ibiskit witness L3.14 --seed n` does.
        params = {"seed": seed} if lemma == "L3.14" else {}
        report = witnesses.run_witness(lemma, **params)
        bad = [f"check failed: {c['claim']}" for c in report["checks"]
               if not c["ok"]]
        if not report["ok"] or not report["checks"]:
            bad.append("report not ok")
        return bad

    return run


# -- search -------------------------------------------------------------------

# The Sp4(4) row enumerates under this node budget: a complete search
# takes minutes on the chain engine.  Its decision uses the same budget.
SP44_NODE_BUDGET = 100

# name, group, action, N, |G|, expected length set, complete enumeration?
# N: (q^2 + q + 1) q^2 point-hyperplane complement pairs of PG(2, q),
# (q^4 - 1)/(q - 1) points, the Gaussian binomial [4 2]_2 = 35, and
# q^2 (q^2 + 1)/2 plus-type forms.  |G|: the order formulas of PSL3(4).2,
# PSL4(3), PSp4(3), GL4(2) = A8 and Sp4(4).  Length sets: the paper.
SEARCH_EXPECTED = [
    ("SL3(4).2 pairs336",
     {"family": "SL", "d": 3, "q": 4, "extensions": ["dual"]},
     {"kind": "pair_complement", "d": 3, "q": 4, "k": 1},
     336, 40320, {2, 3, 4}, True),
    ("PSL4(3) proj40",
     {"family": "SL", "d": 4, "q": 3},
     {"kind": "projective_points", "d": 4, "q": 3},
     40, 6065280, {5, 6}, True),
    ("PSp4(3) proj40",
     {"family": "Sp", "d": 4, "q": 3},
     {"kind": "projective_points", "d": 4, "q": 3},
     40, 25920, {4, 5}, True),
    ("GL4(2) sub35",
     {"family": "GL", "d": 4, "q": 2},
     {"kind": "subspaces_k", "d": 4, "q": 2, "k": 2},
     35, 20160, {4, 5}, True),
    ("Sp4(4) forms136",
     {"family": "Sp", "d": 4, "q": 4},
     {"kind": "quad_forms_plus", "m": 2, "q": 4},
     136, 979200, {4, 5}, False),
]


def _check_not_ibis(verdict, lengths):
    """A NotIBIS verdict must carry two certified bases of distinct
    lengths, both inside the known length set."""
    bad = []
    if verdict.status != "NotIBIS":
        return [f"verdict {verdict.status} != NotIBIS"]
    wits = verdict.witnesses
    if len(wits) != 2 or len(wits[0]) == len(wits[1]):
        bad.append("NotIBIS without two witnesses of distinct lengths")
    for w in wits:
        if not (w.is_base and w.is_irredundant):
            bad.append(f"witness {w.points} is not an irredundant base")
        if len(w) not in lengths:
            bad.append(f"witness length {len(w)} outside {sorted(lengths)}")
    if not set(verdict.lengths) <= lengths:
        bad.append(f"verdict lengths {sorted(verdict.lengths)} outside "
                   f"{sorted(lengths)}")
    return bad


def search_case(name, gdesc, adesc, n, order, lengths, complete):
    def run(seed):
        from ibiskit.actions import build_domain, build_group_action
        from ibiskit.groups import GroupSpec
        from ibiskit.ibis import decide_ibis, enumerate_irredundant_base_sizes
        dom = build_domain(adesc)
        G = build_group_action(GroupSpec.deserialize(gdesc), dom)
        bad = []
        if dom.N != n:
            bad.append(f"N {dom.N} != {n}")
        if G.order() != order:
            bad.append(f"|G| {G.order()} != {order}")
        if complete:
            enum = enumerate_irredundant_base_sizes(G)
            if not enum.complete or set(enum.lengths) != lengths:
                bad.append(f"lengths {sorted(enum.lengths)} (complete="
                           f"{enum.complete}) != {sorted(lengths)}")
            verdict = decide_ibis(G, seed=seed)
        else:
            enum = enumerate_irredundant_base_sizes(
                G, node_budget=SP44_NODE_BUDGET)
            if (enum.complete or not enum.lengths
                    or not set(enum.lengths) <= lengths):
                bad.append(f"budgeted lengths {sorted(enum.lengths)} "
                           f"(complete={enum.complete}) not within "
                           f"{sorted(lengths)}")
            verdict = decide_ibis(G, budget=SP44_NODE_BUDGET, seed=seed)
        return bad + _check_not_ibis(verdict, lengths)

    return run


# -- domains --------------------------------------------------------------------

# name, descriptor, N from the counting formula.
DOMAIN_EXPECTED = [
    # lines of the Klein quadric: (q^2 + 1)(q^2 + q + 1)(q + 1)
    ("ts2 Q+(6,3)",
     {"kind": "totally_singular_k", "form": "plus", "d": 6, "q": 3, "k": 2},
     520),
    # planes of the Klein quadric: 2 (q + 1)(q^2 + 1)
    ("ts3 Q+(6,3)",
     {"kind": "totally_singular_k", "form": "plus", "d": 6, "q": 3, "k": 3},
     80),
    # non-degenerate 2-spaces of Sp6(3): q^4 (q^6 - 1)/(q^2 - 1)
    ("nondeg2 Sp(6,3)",
     {"kind": "nondegenerate_k", "form": "symplectic", "d": 6, "q": 3, "k": 2},
     7371),
    # totally isotropic lines of H(3, q^2): (q^3 + 1)(q + 1)
    ("ts2 H(4,3^2)",
     {"kind": "totally_singular_k", "form": "hermitian", "d": 4, "q": 3, "k": 2},
     112),
    # non-singular points of Q-(6,4): (q^6 - 1)/(q - 1) - (q^3 + 1)(q + 1)
    ("ns1 Q-(6,4)",
     {"kind": "nonsingular_1", "form": "-", "d": 6, "q": 4},
     1040),
]


def domain_case(desc, n):
    def run(seed):
        from ibiskit.actions import build_domain
        dom = build_domain(desc)
        return [] if dom.N == n else [f"N {dom.N} != {n}"]

    return run


def workload(name):
    """[(case name, run(seed) -> mismatches)] for the named workload."""
    if name == "reproduce":
        return ([(f"table {r}", table_row_case(r)) for r in TABLE_EXPECTED]
                + [(f"witness {lem}", witness_case(lem)) for lem in LEMMAS])
    if name == "search":
        return [(row[0], search_case(*row)) for row in SEARCH_EXPECTED]
    if name == "domains":
        return [(nm, domain_case(desc, n)) for nm, desc, n in DOMAIN_EXPECTED]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("reproduce", "search", "domains")

