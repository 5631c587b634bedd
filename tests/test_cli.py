import json

import pytest

from ibiskit.cli import main


def run(tmp_path, *argv, out=None):
    args = list(argv)
    if out:
        args += ["--out", str(out)]
    return main(args)


def test_analyze_sl32_ibis(tmp_path):
    out = tmp_path / "r.json"
    code = main(["analyze",
                 "--group", '{"family":"SL","d":3,"q":2}',
                 "--action", '{"kind":"projective_points","d":3,"q":2}',
                 "--task", "ibis", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 2
    assert report["verdict"]["status"] == "IBIS"
    assert report["verdict"]["rank"] == 3


def test_analyze_psp43_notibis(tmp_path):
    out = tmp_path / "r.json"
    code = main(["analyze",
                 "--group", '{"family":"Sp","d":4,"q":3}',
                 "--action", '{"kind":"projective_points","d":4,"q":3}',
                 "--task", "ibis", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"]["status"] == "NotIBIS"
    assert sorted(report["verdict"]["lengths"]) == [4, 5]


def test_analyze_jobfile_and_order(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "group": {"family": "Sp", "d": 6, "q": 2},
        "action": {"kind": "totally_singular_k", "form": "symplectic",
                   "d": 6, "q": 2, "k": 1},
        "task": "order"}))
    out = tmp_path / "r.json"
    assert main(["analyze", str(job), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["order"] == "1451520"


@pytest.mark.parametrize("content", ["[1, 2]", "3", '"job"', "null"])
def test_jobfile_not_an_object_one_line_error(tmp_path, capsys, content):
    job = tmp_path / "job.json"
    job.write_text(content)
    assert main(["analyze", str(job)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "must hold a JSON object" in lines[0]


def test_analyze_malformed_json_exits_1_no_partial(tmp_path):
    out = tmp_path / "r.json"
    code = main(["analyze", "--group", "{not json", "--task", "ibis",
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_analyze_missing_field_exits_1(tmp_path):
    code = main(["analyze", "--group", '{"family":"SL","d":3,"q":2}',
                 "--task", "ibis"])
    assert code == 1


def test_table_rows_and_consistency(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["table", "--rows", "SL3,Sp4(2)'", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "group,degree,expected_b,computed_b,verdict,runtime"
    body = [ln.split(",") for ln in lines[1:]]
    assert [row[0] for row in body] == ["SL3(2) proj", "Sp4(2)' vectors"]
    assert [row[3] for row in body] == ["3", "3"]


@pytest.mark.parametrize("rows,unmatched", [
    ("nope", "'nope'"),
    ("SL3,nope,Sp4(3)", "'nope', 'Sp4(3)'"),
])
def test_table_refuses_rows_that_match_nothing(capsys, rows, unmatched):
    # an entry that selects no row is refused even when others select some
    assert_one_line_error(capsys, main(["table", "--rows", rows]),
                          f"no table row matches --rows {unmatched}")


def test_table_threads_merge_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["table", "--rows", "SL3,PGL2,SL2(4)", "--out", str(a)]) == 0
    assert main(["table", "--rows", "SL3,PGL2,SL2(4)", "--threads", "3",
                 "--out", str(b)]) == 0

    def strip_runtime(path):
        return [ln.rsplit(",", 1)[0] for ln in path.read_text().splitlines()]
    assert strip_runtime(a) == strip_runtime(b)


def test_witness_command(tmp_path):
    out = tmp_path / "w.json"
    code = main(["witness", "L3.2", "--d", "3", "--q", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 2
    assert report["ok"] and report["lemma"] == "L3.2"
    assert all(c["ok"] for c in report["checks"])


def test_witness_unknown_lemma():
    with pytest.raises(SystemExit):
        main(["witness", "L99"])


def test_e7_command(tmp_path):
    out = tmp_path / "e.json"
    assert main(["e7", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["min_ell"] == 7
    assert report["degree"] == str((2**14 - 1) * (2**9 + 1) * (2**5 + 1))


def test_dump_group_roundtrip(tmp_path):
    out = tmp_path / "g.json"
    code = main(["dump-group",
                 "--group", '{"family":"SL","d":3,"q":2}',
                 "--action", '{"kind":"projective_points","d":3,"q":2}',
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["order"] == "168" and data["degree"] == 7
    from ibiskit.perm import PermGroup
    G = PermGroup(7, data["generators"])
    assert G.order() == 168


def test_dump_domain(tmp_path):
    out = tmp_path / "d.json"
    code = main(["dump-domain",
                 "--action", '{"kind":"quad_forms_minus","m":1,"q":4}',
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["domain"]["N"] == 6
    assert len(data["points"]) == 6


def test_base_find_with_size(tmp_path):
    out = tmp_path / "b.json"
    job = {"group": {"family": "Sp", "d": 4, "q": 3},
           "action": {"kind": "projective_points", "d": 4, "q": 3},
           "task": "base-find", "size": 5}
    jf = tmp_path / "job.json"
    jf.write_text(json.dumps(job))
    assert main(["analyze", str(jf), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["found"]["points"]) == 5 and rep["complete"]
    assert rep["found"]["is_base"] and rep["found"]["is_irredundant"]
    assert "seed" not in rep
    # an impossible size: found null after a complete search exits 0
    # (absence is a value, not an error), a budget that runs out first 2
    job["size"] = 9
    jf.write_text(json.dumps(job))
    assert main(["analyze", str(jf), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["found"] is None and rep["complete"]
    assert main(["analyze", str(jf), "--budget", "25", "--out", str(out)]) == 2
    rep = json.loads(out.read_text())
    assert rep["found"] is None and not rep["complete"]


def test_base_find_refuses_a_witness_that_is_not_a_base(monkeypatch, tmp_path,
                                                        capsys):
    # a faked enumeration whose witness of length 2 is no base of SL3(2)
    import ibiskit.cli as cli_mod
    from ibiskit.ibis import EnumerationResult
    monkeypatch.setattr(cli_mod, "enumerate_irredundant_base_sizes",
                        lambda G, budget: EnumerationResult(
                            frozenset({2}), True, {2: (0, 1)}, 1))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"size": 2}))
    code = main(["analyze", str(job)] + SL32 + ["--task", "base-find"])
    assert_one_line_error(capsys, code, "failed re-certification")


def test_base_find_with_size_is_deterministic(tmp_path):
    # the base comes from the enumeration: the same report for any budget
    # that reaches it (a jobfile seed is refused, see
    # test_unknown_job_key_one_line_error)
    job = {"group": {"family": "Sp", "d": 4, "q": 3},
           "action": {"kind": "projective_points", "d": 4, "q": 3},
           "task": "base-find", "size": 4}
    jf, out = tmp_path / "job.json", tmp_path / "b.json"
    jf.write_text(json.dumps(job))
    found = []
    for budget in (2_000_000, 1000):
        assert main(["analyze", str(jf), "--budget", str(budget),
                     "--out", str(out)]) == 0
        found.append(json.loads(out.read_text())["found"])
    assert found[0] == found[1] and len(found[0]["points"]) == 4


@pytest.mark.parametrize("size", [2.5, True, -3, "abc", None])
def test_bad_size_one_line_error(tmp_path, capsys, size):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"size": size}))
    code = main(["analyze", str(job)] + SL32 + ["--task", "base-find"])
    assert_one_line_error(capsys, code, "size must be a non-negative integer")


def test_base_find_size_zero_searches_for_the_empty_base(tmp_path, capsys):
    # size 0 is a size: the enumeration finds no base of length 0 for a
    # nontrivial group, rather than the greedy base being run
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"size": 0}))
    assert main(["analyze", str(job)] + SL32 + ["--task", "base-find"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "base" not in report
    assert report["found"] is None and report["complete"]


@pytest.mark.parametrize("key", ["budjet", "seed"])
def test_unknown_job_key_one_line_error(tmp_path, capsys, key):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"task": "order", key: 3}))
    assert_one_line_error(capsys, main(["analyze", str(job)] + SL32), repr(key))


@pytest.mark.parametrize("task", ["order", "orbits", "ibis", "minimal-bases"])
def test_size_for_a_task_that_does_not_read_it_one_line_error(tmp_path, capsys,
                                                               task):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"task": task, "size": 3}))
    assert_one_line_error(capsys, main(["analyze", str(job)] + SL32), "'size'")


@pytest.mark.parametrize("command", ["dump-group", "dump-domain"])
@pytest.mark.parametrize("key,value", [("task", "order"), ("budget", 10),
                                       ("size", 3)])
def test_dump_refuses_a_job_key_it_does_not_read(tmp_path, capsys, command,
                                                 key, value):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({key: value}))
    code = main([command, str(job)] + SL32[2 if command == "dump-domain" else 0:])
    assert_one_line_error(capsys, code, repr(key))


@pytest.mark.parametrize("argv,jobfile,message", [
    (["dump-group", "--action", '{"kind":"projective_points","d":3,"q":2}'],
     None, "missing 'group'"),
    (["dump-domain"], None, "missing 'action'"),
    (["analyze"], {"group": {"family": "SL", "d": 3, "q": 2}, "task": "order"},
     "missing 'action'"),
    (["dump-domain"], {"group": {"family": "SL", "d": 3, "q": 2}},
     "missing 'action'"),
], ids=["dump-group-no-group", "dump-domain-no-action", "analyze-jobfile-no-action",
        "dump-domain-jobfile-no-action"])
def test_missing_job_key_one_line_error(tmp_path, capsys, argv, jobfile, message):
    if jobfile is not None:
        job = tmp_path / "job.json"
        job.write_text(json.dumps(jobfile))
        argv = argv + [str(job)]
    assert_one_line_error(capsys, main(argv), message)


def test_table_contradiction_guard(monkeypatch, tmp_path):
    import ibiskit.cli as cli_mod
    wrong = [("SL3(2) proj", {"family": "SL", "d": 3, "q": 2},
              {"kind": "projective_points", "d": 3, "q": 2}, 7)]
    monkeypatch.setattr(cli_mod, "TABLE_ROWS", wrong)
    assert main(["table", "--out", str(tmp_path / "t.csv")]) == 1


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["analyze", "--group", '{"family":"Sp","d":4,"q":3}',
            "--action", '{"kind":"projective_points","d":4,"q":3}',
            "--task", "ibis", "--budget", "50000"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("group,action,message", [
    ('{"family":"SL"}', '{"kind":"projective_points","d":2,"q":2}',
     "missing 'd'"),
    ('{"family":"SL","d":2,"q":2}', '{"kind":"projective_points","d":2}',
     "missing 'q'"),
    ('{"family":"SL","d":2,"q":2}', '{"kind":"projective_points","d":2,"q":4}',
     "over GF(2) but the domain lives over GF(2^2)"),
    ('{"family":"SL","d":3,"q":3}', '{"kind":"projective_points","d":3,"q":2}',
     "over GF(3) but the domain lives over GF(2)"),
    ('{"family":"SL","d":3,"q":2}', '{"kind":"projective_points","d":2,"q":2}',
     "dimension 3 but the domain's ambient dimension is 2"),
    ('{"family":"SL","d":"3","q":2}', '{"kind":"projective_points","d":3,"q":2}',
     "needs an integer 'd'"),
    ('{"family":"SL","d":3,"q":2}', '{"kind":"projective_points","d":3,"q":2.0}',
     "needs an integer 'q'"),
    ('{"family":"SL","d":2,"q":2}', '{"kind":"projective_points","d":2,"q":1}',
     "1 is not a prime power"),
    ('{"family":"SL","d":2,"q":2048}',
     '{"kind":"projective_points","d":2,"q":2048}',
     "field size 2^11 exceeds cap 1024"),
    # JSON true is a Python int, but no integer parameter
    ('{"family":"SL","d":3,"q":2}', '{"kind":"subspaces_k","d":3,"q":2,"k":true}',
     "needs an integer 'k'"),
    ('{"family":"SL","d":3,"q":2}', '{"kind":"projective_points","d":true,"q":2}',
     "needs an integer 'd'"),
    ('{"family":"SL","d":3,"q":2}', '{"kind":"projective_points","d":3,"q":true}',
     "needs an integer 'q'"),
    ('{"family":"SL","d":true,"q":2}', '{"kind":"projective_points","d":3,"q":2}',
     "needs an integer 'd'"),
    ('{"family":"SL","d":3,"q":true}', '{"kind":"projective_points","d":3,"q":2}',
     "needs an integer 'q'"),
    # without its family this would be all six lines of the plus quadric
    ('{"family":"OmegaPlus","d":4,"q":2}',
     '{"kind":"max_isotropic_family","form":"plus","d":4,"q":2,"k":2}',
     "action descriptor 'max_isotropic_family' is missing 'family'"),
])
def test_bad_descriptor_one_line_error(capsys, group, action, message):
    code = main(["analyze", "--group", group, "--action", action,
                 "--task", "order"])
    assert_one_line_error(capsys, code, message)


@pytest.mark.parametrize("extra,message", [
    ('"extensions":"dual"', "frob or frob:<int>, got 'dual'"),
    ('"extensions":[1]', "frob or frob:<int>, got [1]"),
    ('"extensions":["frob:x"]', "frob or frob:<int>, got ['frob:x']"),
    ('"derived":"no"', "derived must be true or false, got 'no'"),
])
def test_bad_group_spec_one_line_error(capsys, extra, message):
    code = main(["analyze", "--group", '{"family":"SL","d":3,"q":4,%s}' % extra,
                 "--action", '{"kind":"projective_points","d":3,"q":4}',
                 "--task", "order"])
    assert_one_line_error(capsys, code, message)


def test_domain_over_the_degree_cap_one_line_error(capsys, monkeypatch):
    # a domain above perm.DEGREE_CAP is refused before any induction
    from ibiskit import actions, perm

    def no_induction(*args):
        raise AssertionError("induced a domain over the degree cap")

    monkeypatch.setattr(perm, "DEGREE_CAP", 6)
    monkeypatch.setattr(actions, "induce_images", no_induction)
    code = main(["analyze", "--group", '{"family":"SL","d":3,"q":2}',
                 "--action", '{"kind":"projective_points","d":3,"q":2}',
                 "--task", "order"])
    assert_one_line_error(capsys, code, "7 points, more than the permutation degree cap 6")


def assert_one_line_error(capsys, code, message):
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


@pytest.mark.parametrize("action", [
    {"kind": "totally_singular_k", "form": "symplectic", "d": 4, "q": 2, "k": 0},
    {"kind": "totally_singular_k", "form": "plus", "d": 4, "q": 3, "k": -1},
    {"kind": "nondegenerate_k", "form": "symplectic", "d": 4, "q": 3, "k": 0},
    {"kind": "nondegenerate_k", "form": "symplectic", "d": 6, "q": 2, "k": 7},
    {"kind": "nondegenerate_k", "form": "symplectic", "d": 4, "q": 2, "k": -2},
    {"kind": "subspaces_k", "d": 4, "q": 2, "k": 0},
    {"kind": "subspaces_k", "d": 4, "q": 2, "k": 4},
    {"kind": "subspaces_k", "d": 4, "q": 2, "k": 5},
    {"kind": "subspaces_k", "d": 4, "q": 2, "k": -1},
    {"kind": "projective_points", "d": 1, "q": 2},
], ids=["ts-k0", "ts-negative", "nondeg-k0", "nondeg-k-above-d", "nondeg-negative",
        "sub-k0", "sub-k-is-d", "sub-k-above-d", "sub-negative", "points-d1"])
def test_subspace_dimension_out_of_range_one_line_error(capsys, action):
    code = main(["dump-domain", "--action", json.dumps(action)])
    k = action.get("k", 1)
    assert_one_line_error(capsys, code, f"k={k} must satisfy 1 <= k < d={action['d']}")


@pytest.mark.parametrize("action,key", [
    ({"kind": "quad_forms_plus", "m": 0, "q": 2}, "m"),
    ({"kind": "quad_forms_minus", "m": -1, "q": 2}, "m"),
    ({"kind": "nondegenerate_k", "form": "symplectic", "d": -2, "q": 3, "k": 1}, "d"),
    ({"kind": "totally_singular_k", "form": "hermitian", "d": -1, "q": 2, "k": 1}, "d"),
    ({"kind": "nonsingular_1", "form": "+", "d": 0, "q": 2}, "d"),
    ({"kind": "projective_points", "d": 0, "q": 2}, "d"),
    ({"kind": "pair_incident", "d": -3, "q": 2, "k": 1}, "d"),
], ids=["forms-m0", "forms-m-negative", "nondeg-d-negative", "ts-d-negative",
        "nonsingular-d0", "points-d0", "pair-d-negative"])
def test_non_positive_dimension_one_line_error(capsys, action, key):
    code = main(["dump-domain", "--action", json.dumps(action)])
    assert_one_line_error(capsys, code, f"needs a positive {key!r}, got {action[key]}")


@pytest.mark.parametrize("family", ["foo", "Greek", 1])
def test_unknown_isotropic_family_one_line_error(capsys, family):
    action = {"kind": "max_isotropic_family", "form": "plus", "d": 4, "q": 2,
              "k": 2, "family": family}
    code = main(["dump-domain", "--action", json.dumps(action)])
    assert_one_line_error(capsys, code, f"unknown family {family!r}")


@pytest.mark.parametrize("group,action,message", [
    ({"family": "SL", "d": 3, "q": 2, "derivd": True},
     {"kind": "projective_points", "d": 3, "q": 2},
     "group descriptor has key 'derivd', which it does not read; it reads: "
     "family, d, q, extensions, derived"),
    ({"family": "SL", "d": 3, "q": 2},
     {"kind": "projective_points", "d": 3, "q": 2, "k": 2},
     "action descriptor 'projective_points' has key 'k', which it does not read; "
     "it reads: kind, d, q"),
    ({"family": "OmegaPlus", "d": 4, "q": 2},
     {"kind": "nonsingular_1", "form": "+", "sign": "-", "d": 4, "q": 2},
     "action descriptor 'nonsingular_1' has key 'sign', which it does not read; "
     "it reads: kind, form, d, q"),
    ({"family": "SL", "d": 3, "q": 2},
     {"kind": "quad_forms_minus", "m": 1, "d": 2, "q": 2},
     "action descriptor 'quad_forms_minus' has key 'd', which it does not read; "
     "it reads: kind, m, q"),
    # a family belongs to max_isotropic_family, which splits these lines
    ({"family": "OmegaPlus", "d": 4, "q": 2},
     {"kind": "totally_singular_k", "form": "plus", "d": 4, "q": 2, "k": 2,
      "family": "greek"},
     "action descriptor 'totally_singular_k' has key 'family', which it does not "
     "read; it reads: kind, form, d, q, k"),
], ids=["group-typo", "points-k", "form-and-sign", "forms-d", "ts-family"])
def test_descriptor_key_not_read_one_line_error(capsys, group, action, message):
    code = main(["analyze", "--group", json.dumps(group),
                 "--action", json.dumps(action), "--task", "order"])
    assert_one_line_error(capsys, code, message)


def test_nonsingular_sign_alone_is_read(capsys):
    group = '{"family":"OmegaMinus","d":4,"q":2}'
    orders = []
    for action in ({"kind": "nonsingular_1", "sign": "-", "d": 4, "q": 2},
                   {"kind": "nonsingular_1", "form": "-", "d": 4, "q": 2}):
        assert main(["analyze", "--group", group, "--action", json.dumps(action),
                     "--task", "order"]) == 0
        orders.append(json.loads(capsys.readouterr().out)["order"])
    assert orders[0] == orders[1]


@pytest.mark.parametrize("rows", ["SL3(2),", ",", "", "SL3, ,Sp4"])
def test_table_refuses_an_empty_rows_entry(capsys, rows):
    # "" is a substring of every row name, so it would select them all
    assert_one_line_error(capsys, main(["table", "--rows", rows]),
                          f"--rows {rows!r} has an empty entry")


SL32 = ["--group", '{"family":"SL","d":3,"q":2}',
        "--action", '{"kind":"projective_points","d":3,"q":2}']


@pytest.mark.parametrize("task", ["ibis", "minimal-bases"])
@pytest.mark.parametrize("flag,job_budget", [
    ("-5", None), (None, -1), (None, 2.5), (None, "10"), (None, True)])
def test_bad_budget_one_line_error(tmp_path, capsys, task, flag, job_budget):
    argv = ["analyze"] + SL32 + ["--task", task]
    if flag is not None:
        argv += ["--budget", flag]
    else:
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"budget": job_budget}))
        argv.insert(1, str(job))
    assert_one_line_error(capsys, main(argv),
                          "budget must be a non-negative integer")


def test_budget_zero_spends_no_nodes(capsys):
    assert main(["analyze"] + SL32 + ["--task", "ibis", "--budget", "0"]) == 2
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["status"] == "Unknown" and verdict["budget_used"] == 0


def test_minimal_bases_budget_zero_is_inconclusive(capsys):
    assert main(["analyze"] + SL32 + ["--task", "minimal-bases",
                                      "--budget", "0"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["complete"] is False and report["minimal_base_sizes"] == []


@pytest.mark.parametrize("budget", [0, 1, 3, 10, 100])
def test_budget_used_within_budget(capsys, budget):
    code = main(["analyze", "--group", '{"family":"Sp","d":4,"q":3}',
                 "--action", '{"kind":"projective_points","d":4,"q":3}',
                 "--task", "ibis", "--budget", str(budget)])
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["budget_used"] <= budget
    assert code == (2 if verdict["status"] == "Unknown" else 0)
    assert "seed" not in verdict


def test_table_call_of_the_benchmark(capsys):
    # the exact call perfbench/cases.py makes for each table row
    assert main(["table", "--rows", "SL3(2) proj", "--threads", "1",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["group"] for r in rows] == ["SL3(2) proj"]
    assert rows[0]["computed_b"] == 3


@pytest.mark.parametrize("argv", [
    ["dump-domain", "--action", '{"kind":"projective_points","d":3,"q":2}',
     "--threads", "2"],
    ["dump-group", "--group", '{"family":"SL","d":3,"q":2}',
     "--action", '{"kind":"projective_points","d":3,"q":2}', "--seed", "1"],
    ["table", "--budget", "10"],
    ["analyze", "--group", '{"family":"SL","d":3,"q":2}',
     "--action", '{"kind":"projective_points","d":3,"q":2}', "--task", "order",
     "--format", "csv"],
    ["e7", "2", "--threads", "2"],
    ["witness", "L3.2", "--budget", "5"],
    ["analyze", "--group", '{"family":"SL","d":3,"q":2}',
     "--action", '{"kind":"projective_points","d":3,"q":2}', "--task", "ibis",
     "--seed", "1"],
    ["witness", "L3.14", "--seed", "1"],
    ["witness", "P5.1", "--m", "2"],
    ["witness", "L3.2", "--m", "3"],
])
def test_unread_flags_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["-3", "0", "1", "6"])
def test_e7_refuses_q_that_is_not_a_prime_power(capsys, q):
    # no field has these sizes, and the formulas divide by q - 1
    assert_one_line_error(capsys, main(["e7", q]), "prime power")


@pytest.mark.parametrize("argv,message", [
    (["L3.3", "--d", "4"], "L3.3 takes no parameter 'd'"),
    (["L3.3", "--q", "3"], "L3.3 takes no parameter 'q'"),
    (["L3.14", "--d", "4"], "L3.14 takes no parameter 'd'"),
    (["P5.1", "--d", "4"], "P5.1 takes no parameter 'd'"),
    (["P7.2-q2", "--q", "2"], "P7.2-q2 takes no parameter 'q'"),
    (["L6.1", "--q", "2"], "GF(2) has no lam"),
    (["L3.2", "--q", "4"], "(d, q) != (3, 4)"),
    (["L3.14", "--q", "2"], "need q >= 3"),
    (["L6.1", "--d", "4"], "L6.1 takes no parameter 'd'"),
    (["P7.2-q2", "--d", "6"], "P7.2-q2 takes no parameter 'd'"),
])
def test_witness_refuses_parameters_it_cannot_use(capsys, argv, message):
    assert_one_line_error(capsys, main(["witness"] + argv), message)
