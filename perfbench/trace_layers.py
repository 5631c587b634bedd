"""Spans and counters around the public entry points of every ibiskit
module, installed at runtime from the benchmark's own files.

Every public function of a module, and every public plain method of a
class the module defines, is replaced by a wrapper that records a span:
name, start, end, parent span and case id.  Names that other modules
re-import (`ibis.orbit`, `witnesses.base_report`, ...) are replaced too,
so a call is traced whichever module it goes through.  Spans live in flat
arrays in memory and are written out once, after the pass.

A module's self time is the time its spans cover minus the time covered
by their child spans.  Time under no span at all is the remainder, so the
module self times plus the remainder add up to the pass wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
import weakref
from array import array

import numpy as np

MODULES = ("gf", "linalg", "actions", "groups", "perm", "ibis", "witnesses",
           "cli")

DOMAIN_BUILDERS = frozenset(f"actions.{n}" for n in (
    "build_domain", "build_projective_points", "build_subspace_domain",
    "build_totally_singular", "build_nonsingular_points", "build_pair_domain",
    "build_quad_forms_domain", "build_nondegenerate_domain"))

# Counters that must repeat exactly across two traced passes with one seed.
EXACT_COUNTERS = ("ibis.nodes", "gf.mul.calls", "actions.candidates",
                  "actions.points", "perm.elements.bytes", "witnesses.checks")


def _traceable(obj, module_name):
    return ((inspect.isfunction(obj) or hasattr(obj, "cache_info"))
            and getattr(obj, "__module__", None) == module_name)


class Tracer:
    def __init__(self):
        self.case = -1
        self.names = []                # name id -> "module.qualname"
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.case_id = array("i")
        self.stack = [-1]
        self.counts = dict.fromkeys((
            "gf.mul.elems", "actions.candidates", "actions.points",
            "actions.point_images", "groups.generators", "perm.elements.bytes",
            "ibis.nodes", "ibis.random.found", "witnesses.checks"), 0)
        self._patches = []
        self._element_tables = {}
        self._enumerated = {}

    # -- installation --------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"ibiskit.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _traceable(obj, mod.__name__):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, fn in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, mname, self._wrap(
                                fn, f"{short}.{attr}.{mname}"))
        # the defining module and every module that re-imported the name
        for modname, mod in list(sys.modules.items()):
            if modname == "ibiskit" or modname.startswith("ibiskit."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        self._patch(mod, attr, wrapped[id(obj)])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def _wrap(self, fn, qualname):
        nid = len(self.names)
        self.names.append(qualname)
        hook = getattr(self, "_hook_" + qualname.replace(".", "_"), None)
        names, parents, cases = self.name, self.parent, self.case_id
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            cases.append(tracer.case)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(i, args, result)
            return result

        return wrapper

    # -- counters taken where the work happens -------------------------------

    def _hook_gf_FiniteField_mul(self, i, args, result):
        self.counts["gf.mul.elems"] += np.size(result)

    def _outer_builder(self, i):
        """Index of the outermost domain-builder span enclosing span i."""
        found = -1
        p = self.parent[i]
        while p >= 0:
            if self.names[self.name[p]] in DOMAIN_BUILDERS:
                found = p
            p = self.parent[p]
        return found

    def _count_candidates(self, i, args, result):
        b = self._outer_builder(i)
        if b >= 0:
            self._enumerated.setdefault(b, []).append(len(result))

    _hook_actions_enumerate_subspaces = _count_candidates
    _hook_linalg_all_row_vectors = _count_candidates

    def _count_points(self, i, args, result):
        # a builder that combines several enumerations (pairs) tests
        # their product
        sizes = self._enumerated.pop(i, None)
        if self._outer_builder(i) < 0:
            self.counts["actions.points"] += result.N
            self.counts["actions.candidates"] += math.prod(sizes) if sizes else 0

    _hook_actions_build_domain = _count_points
    _hook_actions_build_projective_points = _count_points
    _hook_actions_build_subspace_domain = _count_points
    _hook_actions_build_totally_singular = _count_points
    _hook_actions_build_nonsingular_points = _count_points
    _hook_actions_build_pair_domain = _count_points
    _hook_actions_build_quad_forms_domain = _count_points
    _hook_actions_build_nondegenerate_domain = _count_points

    def _hook_actions_induce_permutation(self, i, args, result):
        self.counts["actions.point_images"] += result.degree

    def _hook_groups_classical_generators(self, i, args, result):
        self.counts["groups.generators"] += len(result[0])

    def _hook_perm_PermGroup_elements(self, i, args, result):
        # elements() caches its table: count the bytes of each table once
        ref = self._element_tables.get(id(result))
        if ref is None or ref() is not result:
            self._element_tables[id(result)] = weakref.ref(result)
            self.counts["perm.elements.bytes"] += result.nbytes

    def _hook_ibis_enumerate_irredundant_base_sizes(self, i, args, result):
        self.counts["ibis.nodes"] += result.nodes

    def _hook_ibis_find_random_irredundant_base(self, i, args, result):
        self.counts["ibis.random.found"] += result is not None

    def _hook_witnesses_run_witness(self, i, args, result):
        self.counts["witnesses.checks"] += len(result["checks"])

    # -- results ---------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return start, end, name, parent

    def summary(self, t0, t1):
        """Per-layer metrics of the pass that ran between t0 and t1."""
        start, end, name, parent = self._arrays()
        n, k = len(name), len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = np.bincount(name, weights=dur - child, minlength=k)
        calls = np.bincount(name, minlength=k)
        ids = {nm: j for j, nm in enumerate(self.names)}

        parent_list, name_list = parent.tolist(), name.tolist()

        def outer_s(qualnames):
            """Time under spans of these names, nested ones counted once."""
            js = {ids[q] for q in qualnames if q in ids}
            total = 0.0
            for i in np.nonzero(np.isin(name, list(js)))[0].tolist():
                p = parent_list[i]
                while p >= 0 and name_list[p] not in js:
                    p = parent_list[p]
                if p < 0:
                    total += dur[i]
            return float(total)

        def count(q):
            return int(calls[ids[q]]) if q in ids else 0

        m = {}
        modules = np.array([self.names[j].split(".")[0] for j in range(k)])
        for mod in MODULES:
            m[f"{mod}.self_s"] = float(self_time[modules == mod].sum())
        wall = t1 - t0
        m["trace.remainder_s"] = wall - float(dur[~has_parent].sum())
        m["trace.wall_s"] = wall
        m["trace.spans"] = n

        m["gf.mul.calls"] = count("gf.FiniteField.mul")
        m["gf.mul.elems"] = int(self.counts["gf.mul.elems"])
        m["gf.add.calls"] = count("gf.FiniteField.add")
        m["linalg.rref.calls"] = count("linalg.rref")
        m["linalg.mat_mul.calls"] = count("linalg.mat_mul")
        m["actions.build_domain_s"] = outer_s(DOMAIN_BUILDERS)
        m["actions.candidates"] = int(self.counts["actions.candidates"])
        m["actions.points"] = int(self.counts["actions.points"])
        m["actions.keep_ratio"] = (m["actions.points"] / m["actions.candidates"]
                                   if m["actions.candidates"] else 0.0)
        m["actions.induce_s"] = outer_s(["actions.induce_permutation"])
        m["actions.point_images"] = int(self.counts["actions.point_images"])
        m["groups.classical_generators_s"] = outer_s(
            ["groups.classical_generators"])
        m["groups.generators"] = int(self.counts["groups.generators"])
        m["perm.chain_s"] = outer_s(["perm.PermGroup.chain"])
        m["perm.chain.calls"] = count("perm.PermGroup.chain")
        m["perm.orbit.calls"] = count("perm.orbit")
        m["perm.elements_s"] = outer_s(["perm.PermGroup.elements"])
        m["perm.elements.bytes"] = int(self.counts["perm.elements.bytes"])
        m["ibis.decide_s"] = outer_s(["ibis.decide_ibis"])
        m["ibis.enumerate_s"] = outer_s(["ibis.enumerate_irredundant_base_sizes"])
        m["ibis.nodes"] = int(self.counts["ibis.nodes"])
        m["ibis.nodes_per_s"] = (m["ibis.nodes"] / m["ibis.enumerate_s"]
                                 if m["ibis.enumerate_s"] else 0.0)
        m["ibis.base_report.calls"] = count("ibis.base_report")
        # tries of the randomized search: base reports made directly by it
        rnd = ids.get("ibis.find_random_irredundant_base", -1)
        rep = ids.get("ibis.base_report", -1)
        tries = int(np.count_nonzero(
            (name == rep) & has_parent
            & (name[np.where(has_parent, parent, 0)] == rnd)))
        m["ibis.random.tries"] = tries
        m["ibis.random.found_ratio"] = (self.counts["ibis.random.found"] / tries
                                        if tries else 0.0)
        m["ibis.minimal_bases_s"] = outer_s(["ibis.minimal_base_sizes"])
        m["witnesses.run_s"] = outer_s(["witnesses.run_witness"])
        m["witnesses.checks"] = int(self.counts["witnesses.checks"])
        m["cli.table_s"] = outer_s(["cli.cmd_table"])
        return m

    def write_spans(self, path, case_names):
        start, end, name, parent = self._arrays()
        np.savez(path, start=start, end=end, name=name, parent=parent,
                 case=np.frombuffer(self.case_id, dtype=np.int32),
                 names=np.array(self.names), cases=np.array(case_names))
