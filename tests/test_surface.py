"""The public surface of ibiskit.

Every public top-level function or class that no other module of the
package references must be an entry point or documented library API, and
is listed in ALLOWED with the reason it is kept.  A new public helper
that no other module calls fails this test until it is called, made
private, deleted, or added here with its reason.

A reference is `from .module import name`, or `module.name` after
`from . import module`, in another module under src/ibiskit; uses inside
the defining module, in tests and in the benchmark do not count.

The public methods of every module's public classes are held to the
same rule, except that a call anywhere under src/ibiskit, the defining
module included, counts: a named method is called when some module reads
it as an attribute.  An operator or protocol method (a dunder other than
__init__) cannot be told from the same operator on another type, so each
is listed in METHODS_ALLOWED with the reason it is kept, as is a method
that only tests call.
"""

import ast
import os
import pathlib
import subprocess
import sys

import ibiskit

SRC = pathlib.Path(ibiskit.__file__).parent

ALLOWED = {
    # entry points
    "cli.main": "the ibiskit console script",
    "cli.make_parser": "the argument parser that main runs",
    "cli.cmd_analyze": "handler of `ibiskit analyze`",
    "cli.cmd_table": "handler of `ibiskit table`; the benchmark times it",
    "cli.cmd_witness": "handler of `ibiskit witness`",
    "cli.cmd_e7": "handler of `ibiskit e7`",
    "cli.cmd_dump_group": "handler of `ibiskit dump-group`",
    "cli.cmd_dump_domain": "handler of `ibiskit dump-domain`",
    "cli.compute_table_row": "one row of the table, the unit cmd_table maps",
    "witnesses.witness_projective_chains": "catalog entry L3.2",
    "witnesses.witness_two_subspaces": "catalog entry L3.3",
    "witnesses.witness_symplectic_points": "catalog entry L3.13",
    "witnesses.witness_symplectic_lines": "catalog entry L3.14",
    "witnesses.witness_nondegenerate_pair": "catalog entry L6.1",
    "witnesses.witness_quadratic_forms": "catalog entry P5.1",
    "witnesses.witness_nonsingular_sequences": "catalog entry P7.2-q2",
    # error types: each module's one exception, a ValueError the CLI reports
    "actions.ActionError": "raised for bad action descriptors and domains",
    "cli.CliError": "raised for bad job descriptors",
    "gf.GFError": "raised for bad field parameters",
    "groups.GroupError": "raised for bad group descriptors",
    "linalg.LinalgError": "raised for bad shapes and forms",
    "perm.PermError": "raised for bad permutations and degrees",
    "witnesses.WitnessError": "raised for witness parameters out of range",
    # types returned to library callers
    "actions.ActionDomain": "the point domain every builder returns",
    "gf.FiniteField": "the field type make_field returns",
    "linalg.FormSpec": "the form type the standard-form builders return",
    "ibis.BaseReport": "the result of base_report and base extension",
    "ibis.EnumerationResult": "the result of both exhaustive searches",
    "ibis.IbisVerdict": "the result of decide_ibis",
    # library steps and constructions of the paper
    "actions.build_pair_domain": "builder of the pair domains",
    "actions.enumerate_subspaces": "all k-subspaces as one RREF stack",
    "actions.gaussian_binomial": "the number of k-subspaces",
    "actions.witt_index": "the largest totally singular dimension of a form",
    "actions.theta_value": "theta_a(u) on the quadratic-forms domain",
    "gf.find_special_alpha": "the full-orbit trace-equation element of PSU3",
    "groups.certified_order": "checks a spec's generators against the order formula",
    "groups.induced_on_nonzero_vectors": "the faithful action certified_order uses",
    "ibis.is_base": "the base predicate, for library callers and the tests",
    "ibis.is_irredundant": "the irredundance predicate, for library callers and the tests",
    "linalg.klein_map": "lines of PG(3, q) to points of the Klein quadric",
    "linalg.pfaffian4": "the Pfaffian of a 4 x 4 skew matrix",
    "linalg.pfaffian_quadric_form": "the Pfaffian as a quadratic form",
}

METHODS_ALLOWED = {
    "gf.FiniteField.__eq__": "build_group_action refuses a domain over another field",
    "gf.FiniteField.__repr__": "names the fields in that refusal's message",
    "groups.GroupSpec.__post_init__": "the dataclass hook that validates a spec",
    "ibis.BaseReport.__len__": "a base's length, which the witness catalog compares",
}


def public_definitions(tree):
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def references(tree, modules):
    """(module, name) for every name the tree imports from a sibling
    module or reads as an attribute of one."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out |= {(node.module, alias.name) for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            out.add((node.value.id, node.attr))
    return out


def unreferenced_public_names():
    trees = {path.stem: ast.parse(path.read_text())
             for path in SRC.glob("*.py") if path.stem != "__init__"}
    out = set()
    for module, tree in trees.items():
        used = set().union(*(references(other, trees)
                             for name, other in trees.items() if name != module))
        out |= {f"{module}.{name}" for name in public_definitions(tree)
                if (module, name) not in used}
    return out


def unreferenced_methods():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return {f"{module}.{cls.name}.{node.name}"
            for module, tree in trees.items()
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name != "__init__"
            and (node.name.startswith("__") and node.name.endswith("__")
                 or not node.name.startswith("_") and node.name not in read)}


def test_uncalled_public_methods_are_allowlisted():
    found = unreferenced_methods()
    allowed = set(METHODS_ALLOWED)
    assert sorted(found - allowed) == [], "public and called by no module"
    assert sorted(allowed - found) == [], "allowlisted but now called"


def test_unreferenced_public_names_are_allowlisted():
    found = unreferenced_public_names()
    assert sorted(found - set(ALLOWED)) == [], "public and called by no other module"
    assert sorted(set(ALLOWED) - found) == [], "allowlisted but now referenced"


def test_reference_scan_sees_both_import_forms():
    # witnesses imports base_report by name and reads linalg.eval_bilinear_batch
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    refs = references(trees["witnesses"], trees)
    assert ("ibis", "base_report") in refs
    assert ("linalg", "eval_bilinear_batch") in refs


COLD_START = """
import sys
from ibiskit.actions import build_domain, build_group_action
from ibiskit.ibis import decide_ibis
dom = build_domain({"kind": "nondegenerate_k", "form": "symplectic", "d": 4, "q": 3,
                    "k": 2})
build_domain({"kind": "pair_complement", "d": 3, "q": 3, "k": 1})
verdict = decide_ibis(build_group_action({"family": "Sp", "d": 4, "q": 3}, dom))
print(verdict.status, "numpy.ma" in sys.modules)
"""


def test_cold_start_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 12 ms in a fresh
    # interpreter; a domain build, a group induction and a decision need none
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", COLD_START], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["NotIBIS", "False"]
