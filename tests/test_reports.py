"""Pinned reports: the sha256 of the table and of every witness report.

A change that alters a report's bytes fails here; when the change is
meant, update the pin and give the old and new digests in CHANGES.md.
"""

import hashlib
import json

import pytest

from ibiskit.cli import main

# `ibiskit table --format json` with each row's wall-clock runtime removed,
# re-serialized as the report is (indent 2, sorted keys, final newline).
TABLE_SHA256 = "5eb8743690e944758780aaa43e2186b27f30c4919e0d00118701cfac68681c6c"

# `ibiskit witness <lemma>` at its default parameters.
WITNESS_SHA256 = {
    "L3.2": "964d638d058402b959c4744c8a615b2f6579c5e883f4f307cd5fb2c7552e63fb",
    "L3.3": "0c946f92f9c504173cf505ad19b0b036fbe94c1024bbc79443ebd28ec8c2b83e",
    "L3.13": "852903d7bc6653e01518e2a2fe2100060bc730ef4de77fbe5cdd71156aab58d6",
    "L3.14": "6b6b4bd35d668e780efbafa5f6afe1b5b8565aa1cf38a29f6a227cf31d9f5f66",
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
