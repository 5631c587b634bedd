"""Command-line front end: construct a group action from descriptors,
run analyses, replay the witness catalog, and emit the table report.

Subcommands: analyze, table, witness, e7, dump-group, dump-domain.
Exit codes: 0 success, 1 error, 2 inconclusive (an Unknown verdict, or
a budget that ran out first).  Reports carry "schema": 2 and are
byte-stable for a fixed descriptor and budget, except for the
wall-clock runtime column of the table command.  Every report is
deterministic: base-find with a size and witness L3.14 take their base
from the exhaustive enumeration, and --budget counts search nodes for
every analyze task.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import ibis, witnesses
from .actions import build_domain, build_group_action
from .groups import GroupSpec
from .ibis import (
    IbisError, base_report, decide_ibis, e7_bound_check,
    enumerate_irredundant_base_sizes, extend_to_irredundant_base,
    minimal_base_sizes,
)

SCHEMA = 2

# Rows of the reproduction table: name, group descriptor, action
# descriptor, expected base size (None: reproduce a NotIBIS verdict).
TABLE_ROWS = [
    ("SL3(2) proj", {"family": "SL", "d": 3, "q": 2},
     {"kind": "projective_points", "d": 3, "q": 2}, 3),
    ("SL4(2) proj", {"family": "SL", "d": 4, "q": 2},
     {"kind": "projective_points", "d": 4, "q": 2}, 4),
    ("Sp4(2) vectors", {"family": "Sp", "d": 4, "q": 2},
     {"kind": "projective_points", "d": 4, "q": 2}, 4),
    ("Sp4(2)' vectors", {"family": "Sp", "d": 4, "q": 2, "derived": True},
     {"kind": "projective_points", "d": 4, "q": 2}, 3),
    ("PGL2(5) line", {"family": "GL", "d": 2, "q": 5},
     {"kind": "projective_points", "d": 2, "q": 5}, 3),
    ("SL2(4) minus", {"family": "Sp", "d": 2, "q": 4},
     {"kind": "quad_forms_minus", "m": 1, "q": 4}, 3),
    ("SL2(8) minus", {"family": "Sp", "d": 2, "q": 8},
     {"kind": "quad_forms_minus", "m": 1, "q": 8}, 3),
    ("Om4+(4) ns1", {"family": "OmegaPlus", "d": 4, "q": 4},
     {"kind": "nonsingular_1", "form": "+", "d": 4, "q": 4}, 3),
    ("Om4-(4) ns1", {"family": "OmegaMinus", "d": 4, "q": 4},
     {"kind": "nonsingular_1", "form": "-", "d": 4, "q": 4}, 3),
]


class CliError(ValueError):
    pass


def _emit(args, payload, text=None):
    """Write the report (atomically when --out is given)."""
    if getattr(args, "format", "json") == "json" or text is None:
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = text
    if getattr(args, "out", None):
        import os
        tmp = args.out + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(body)
        os.replace(tmp, args.out)
    else:
        sys.stdout.write(body)


def _build_job(args, *required, optional=()):
    """The job: the jobfile's object, overridden by the inline flags;
    raises unless it holds every required key, and no key but those and
    the optional ones: a command refuses the keys it does not read."""
    keys = required + optional
    job = {}
    if getattr(args, "jobfile", None):
        with open(args.jobfile) as fh:
            job = json.load(fh)
        if not isinstance(job, dict):
            raise CliError(f"jobfile {args.jobfile} must hold a JSON object")
        for key in job:
            if key not in keys:
                raise CliError(f"jobfile {args.jobfile} has key {key!r}, which "
                               f"{args.command} does not read; it reads: "
                               f"{', '.join(keys)}")
    for key in ("group", "action"):
        inline = getattr(args, key, None)
        if inline:
            job[key] = json.loads(inline)
    if getattr(args, "task", None):
        job["task"] = args.task
    for key in required:
        if key not in job:
            raise CliError(f"job descriptor is missing {key!r}")
    return job


def cmd_analyze(args):
    job = _build_job(args, "group", "action", "task",
                     optional=("budget", "size"))
    job.setdefault("budget", args.budget)
    budget = job["budget"]
    if type(budget) is not int or budget < 0:
        raise CliError(f"budget must be a non-negative integer, got {budget!r}")
    task = job["task"]
    size = job.get("size")
    if "size" in job and task != "base-find":
        raise CliError(f"job key 'size' is read only by task base-find, "
                       f"not by {task!r}")
    if "size" in job and (type(size) is not int or size < 0):
        raise CliError(f"size must be a non-negative integer, got {size!r}")
    spec = GroupSpec.deserialize(job["group"])
    dom = build_domain(job["action"])
    G = build_group_action(spec, dom)
    report = {"schema": SCHEMA, "group": spec.serialize(),
              "action": dom.describe(), "task": task, "budget": budget,
              "degree": dom.N}
    exit_code = 0
    if task == "order":
        report["order"] = str(G.order())
    elif task == "orbits":
        sizes = np.bincount(G.orbits())
        report["orbit_sizes"] = sorted(sizes[sizes > 0].tolist())
    elif task == "base-find":
        if "size" in job:
            enum = enumerate_irredundant_base_sizes(G, budget)
            found = enum.witnesses.get(size)
            rep = None if found is None else base_report(G, found)
            if rep is not None and not (rep.is_base and rep.is_irredundant):
                raise IbisError("the base found failed re-certification")
            report["found"] = None if rep is None else rep.serialize()
            report["complete"] = enum.complete
            exit_code = 0 if rep is not None or enum.complete else 2
        else:
            report["base"] = extend_to_irredundant_base(G).serialize()
    elif task == "ibis":
        verdict = decide_ibis(G, budget=budget)
        report["verdict"] = verdict.serialize()
        exit_code = 2 if verdict.status == "Unknown" else 0
    elif task == "minimal-bases":
        res = minimal_base_sizes(G, node_budget=budget)
        report["minimal_base_sizes"] = sorted(res.lengths)
        report["complete"] = res.complete
        exit_code = 0 if res.complete else 2
    else:
        raise CliError(f"unknown task {task!r}")
    _emit(args, report)
    return exit_code


def compute_table_row(row):
    name, gspec, aspec, expected = row
    t0 = time.monotonic()
    dom = build_domain(aspec)
    G = build_group_action(GroupSpec.deserialize(gspec), dom)
    verdict = decide_ibis(G)
    dt = time.monotonic() - t0
    if verdict.status == "IBIS":
        computed = verdict.rank
    elif verdict.status == "NotIBIS":
        computed = "n/a (not IBIS)"
    else:
        computed = "skipped: inconclusive within budget"
    return {
        "group": name,
        "degree": dom.N,
        "expected_b": expected,
        "computed_b": computed,
        "verdict": verdict.status + (f"({verdict.rank})" if verdict.rank else ""),
        "runtime": f"{dt:.2f}",
    }


def cmd_table(args):
    selector = None if args.rows is None else [s.strip() for s in args.rows.split(",")]
    if "" in (selector or ()):      # "" is a substring of every name
        raise CliError(f"--rows {args.rows!r} has an empty entry")
    rows = [r for r in TABLE_ROWS
            if selector is None or any(s in r[0] for s in selector)]
    unmatched = [s for s in selector or () if not any(s in r[0] for r in TABLE_ROWS)]
    if unmatched:
        raise CliError(f"no table row matches --rows {', '.join(map(repr, unmatched))}")
    if args.threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(compute_table_row, rows))
    else:
        results = [compute_table_row(r) for r in rows]
    for res, row in zip(results, rows):
        if isinstance(res["computed_b"], int) and res["computed_b"] != row[3]:
            raise CliError(f"table row {row[0]} contradicts the expected "
                           f"base size: {res}")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[
        "group", "degree", "expected_b", "computed_b", "verdict", "runtime"])
    writer.writeheader()
    writer.writerows(results)
    if args.format == "json":
        _emit(args, {"schema": SCHEMA, "rows": results})
    else:
        _emit(args, None, text=buf.getvalue())
    return 0


def cmd_witness(args):
    params = {key: getattr(args, key) for key in ("d", "q")
              if getattr(args, key) is not None}
    report = {"schema": SCHEMA, **witnesses.run_witness(args.lemma, **params)}
    _emit(args, report)
    return 0 if report["ok"] else 1


def cmd_e7(args):
    degree, n2, ell = e7_bound_check(args.q)
    report = {"schema": SCHEMA, "q": args.q, "degree": str(degree),
              "n2": str(n2), "min_ell": ell}
    _emit(args, report)
    return 0 if ell >= 7 else 1


def cmd_dump_group(args):
    job = _build_job(args, "group", "action")
    spec = GroupSpec.deserialize(job["group"])
    dom = build_domain(job["action"])
    G = build_group_action(spec, dom)
    payload = {"schema": SCHEMA, "group": spec.serialize()}
    payload.update(G.serialize())
    payload["base"] = list(payload["base"])
    _emit(args, payload)
    return 0


def cmd_dump_domain(args):
    # the group is allowed, so that one jobfile serves both dump commands
    job = _build_job(args, "action", optional=("group",))
    dom = build_domain(job["action"])
    payload = {"schema": SCHEMA, "domain": dom.describe(),
               "points": dom.serialize_points()}
    _emit(args, payload)
    return 0


def make_parser():
    p = argparse.ArgumentParser(prog="ibiskit",
                                description="irredundant-base analysis for "
                                            "classical group actions")
    sub = p.add_subparsers(dest="command", required=True)

    options = {"budget": {"type": int, "default": ibis.DEFAULT_BUDGET},
               "threads": {"type": int, "default": 1},
               "format": {"choices": ("json", "csv"), "default": "csv"},
               "out": {"default": None}}

    def flags(sp, *names):
        """--out, and the other flags the subcommand reads."""
        for name in names + ("out",):
            sp.add_argument("--" + name, **options[name])

    sp = sub.add_parser("analyze", help="run a task from a job descriptor")
    sp.add_argument("jobfile", nargs="?", default=None)
    sp.add_argument("--group", help="inline group JSON")
    sp.add_argument("--action", help="inline action JSON")
    sp.add_argument("--task", choices=("orbits", "order", "base-find", "ibis",
                                       "minimal-bases"))
    flags(sp, "budget")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("table", help="reproduce the IBIS table rows")
    sp.add_argument("--rows", default=None,
                    help="comma-separated substrings selecting rows")
    flags(sp, "threads", "format")
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("witness", help="replay a lemma's explicit witnesses")
    sp.add_argument("lemma", choices=sorted(witnesses.CATALOG))
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    flags(sp)
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("e7", help="parabolic suborbit bound arithmetic")
    sp.add_argument("q", type=int)
    flags(sp)
    sp.set_defaults(fn=cmd_e7)

    sp = sub.add_parser("dump-group", help="dump the induced permutation group")
    sp.add_argument("jobfile", nargs="?", default=None)
    sp.add_argument("--group")
    sp.add_argument("--action")
    flags(sp)
    sp.set_defaults(fn=cmd_dump_group)

    sp = sub.add_parser("dump-domain", help="dump an action domain")
    sp.add_argument("jobfile", nargs="?", default=None)
    sp.add_argument("--action")
    flags(sp)
    sp.set_defaults(fn=cmd_dump_domain)
    return p


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
