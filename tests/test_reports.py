"""Pinned reports: the sha256 of the table, of every witness report and
of four induced groups, and of the stabilizer chains of three of them
and of two larger actions.

A change that alters a report's bytes fails here; when the change is
meant, update the pin and give the old and new digests in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import ACTIONS, action_group
from ibiskit import perm
from ibiskit.actions import build_domain, build_group_action
from ibiskit.cli import main
from ibiskit.groups import GroupSpec

# `ibiskit table --format json` with each row's wall-clock runtime removed,
# re-serialized as the report is (indent 2, sorted keys, final newline).
TABLE_SHA256 = "5eb8743690e944758780aaa43e2186b27f30c4919e0d00118701cfac68681c6c"

# `ibiskit witness <lemma>` at its default parameters.
WITNESS_SHA256 = {
    "L3.2": "964d638d058402b959c4744c8a615b2f6579c5e883f4f307cd5fb2c7552e63fb",
    "L3.3": "0c946f92f9c504173cf505ad19b0b036fbe94c1024bbc79443ebd28ec8c2b83e",
    "L3.13": "852903d7bc6653e01518e2a2fe2100060bc730ef4de77fbe5cdd71156aab58d6",
    "L3.14": "3389a4a8691d3579ce976da7e7868942e350fc1c6c8fd993dd95b089a2abfd4c",
    "L6.1": "13a46b3dbbed0adde2ca05e6e4f3d529813679682351188c7251db0d8be765a8",
    "P5.1": "b37860c74f2080e5f195e5ec4d71e2025c8d2189b46d9e9bc6c5c24dfd010ffd",
    "P7.2-q2": "49ecf6914a5ae2f885b42fdb6b9aae8c3e72b2ceb00cbb491be2d1f849f8232b",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_table_report_pinned(capsys):
    assert main(["table", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for row in report["rows"]:
        del row["runtime"]
    assert sha256(json.dumps(report, indent=2, sort_keys=True) + "\n") \
        == TABLE_SHA256


def test_every_lemma_is_pinned():
    from ibiskit.witnesses import CATALOG
    assert set(WITNESS_SHA256) == set(CATALOG)


@pytest.mark.parametrize("lemma", sorted(WITNESS_SHA256))
def test_witness_report_pinned(capsys, lemma):
    assert main(["witness", lemma]) == 0
    assert sha256(capsys.readouterr().out) == WITNESS_SHA256[lemma]


# `ibiskit dump-group` of four actions: one with the duality, the forms
# domain, a group generated by 67 products of reflections, and a derived
# group, whose generators are the commutators and conjugates that
# derived_subgroup keeps.
DUMP_GROUP_SHA256 = {
    "SL3(4).2 pairs336":
        "86c9f28449c6a64390db038a15ffaf0e9894aba5aef410329b4fd3e09956e11a",
    "Sp4(4) forms136":
        "5746e33f63720c8bbaee48f9aa9eb932b2cc31b68e66c4d96a848a3afa3cba3b",
    "Om4-(4) ns1":
        "58c22594dee612b0e1c9a779ac461ff2ab262cc9611db7f3ca541baf21f93dfa",
    "Sp4(2)' vectors":
        "10f32108efe2832ee423a03fcaa6f7c61743331b66a5883418a422347bfdaccb",
}

# The chain of the first three built afresh, digested by chain_sha256.
CHAIN_SHA256 = {
    "SL3(4).2 pairs336":
        "8be1148b889476df2cd329c45259f0f06a18cb238de302640f533178fe98eb69",
    "Sp4(4) forms136":
        "9431898c5fa5ba3a458eef6eb416204c1ee43b7384040b03e63f0a50462ecea0",
    "Om4-(4) ns1":
        "57d06a7744ff0b285b444e7377e092d17940d75218fe2b7e54a5669f6213ac15",
}

# Chains built with no random warm-up, so that the Schreier closure
# installs strong generators (on PSL4(3) and Sp4(4) it does).
CLOSURE_SHA256 = dict(CHAIN_SHA256, **{
    "Sp4(4) forms136":
        "0d847d4262736ad9cad801ef0dd8810005efa1abfa5ec27b8b267fe8fcd83b82",
    "PSL4(3) proj40":
        "d047a52598c1685c5f2f882b430b482807f334c36d30cc9dcd033e366cbf2503",
})


@pytest.mark.parametrize("name", sorted(DUMP_GROUP_SHA256))
def test_dump_group_pinned(capsys, name):
    group, action = ACTIONS[name]
    assert main(["dump-group", "--group", json.dumps(group),
                 "--action", json.dumps(action)]) == 0
    assert sha256(capsys.readouterr().out) == DUMP_GROUP_SHA256[name]


def chain_sha256(ch):
    """sha256 of a chain: each level's base point and its strong
    generators, in order."""
    h = hashlib.sha256()
    for lvl in ch.levels:
        h.update(np.int64(lvl.beta).tobytes())
        for g in lvl.gens:
            h.update(g.tobytes())
    return h.hexdigest()


def closure_sha256(name):
    G = action_group(name)
    return chain_sha256(perm._Chain(G.degree, G.generators, rattle=0))


@pytest.mark.parametrize("name", sorted(CHAIN_SHA256))
def test_chain_pinned(name):
    G = action_group(name)
    H = perm.PermGroup(G.degree, G.generators)
    assert chain_sha256(H.chain()) == CHAIN_SHA256[name]


@pytest.mark.parametrize("name", sorted(CLOSURE_SHA256))
def test_closure_chain_pinned(name):
    assert closure_sha256(name) == CLOSURE_SHA256[name]


# Two larger actions in the paper's regime b >= 6, with the chains built
# by default and with no random warm-up.
LARGE_ACTIONS = {
    "Sp8(2) points255": ({"family": "Sp", "d": 8, "q": 2},
                         {"kind": "projective_points", "d": 8, "q": 2}),
    "SL9(2) points511": ({"family": "SL", "d": 9, "q": 2},
                         {"kind": "projective_points", "d": 9, "q": 2}),
}
LARGE_CHAIN_SHA256 = {
    ("Sp8(2) points255", "default"):
        "e8965cf09edc513b92cd714191597b3ade77773403a4b538ec3d000f6b6c9a95",
    ("Sp8(2) points255", "rattle0"):
        "e8965cf09edc513b92cd714191597b3ade77773403a4b538ec3d000f6b6c9a95",
    ("SL9(2) points511", "default"):
        "001a829c9efcc2a926b8331416b38f3423f559719a304faea269585044fc56ff",
    ("SL9(2) points511", "rattle0"):
        "001a829c9efcc2a926b8331416b38f3423f559719a304faea269585044fc56ff",
}


@pytest.mark.parametrize("name,rattle", [
    pytest.param(*key, marks=[pytest.mark.slow] if key[0].startswith("SL9") else [])
    for key in sorted(LARGE_CHAIN_SHA256)])
def test_large_chain_pinned(name, rattle):
    gdesc, adesc = LARGE_ACTIONS[name]
    G = build_group_action(GroupSpec.deserialize(gdesc), build_domain(adesc))
    kw = {"rattle": 0} if rattle == "rattle0" else {}
    ch = perm._Chain(G.degree, G.generators, **kw)
    assert chain_sha256(ch) == LARGE_CHAIN_SHA256[name, rattle]
