"""Pinned reports: the sha256 of the table, of every witness report, of
four induced groups, of fourteen domain dumps, five incident pair ones
and 53 totally singular ones, and of the stabilizer chains of three of
the groups and of two larger actions.

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
# domain, a group generated by 8 Eichler transformations, and a derived
# group, whose generators are the commutators and conjugates that
# derived_subgroup keeps.
DUMP_GROUP_SHA256 = {
    "SL3(4).2 pairs336":
        "86c9f28449c6a64390db038a15ffaf0e9894aba5aef410329b4fd3e09956e11a",
    "Sp4(4) forms136":
        "5746e33f63720c8bbaee48f9aa9eb932b2cc31b68e66c4d96a848a3afa3cba3b",
    "Om4-(4) ns1":
        "2afd7dccdfd7e93b97d455a42795696d7683292c547a5f1b930cb351c4f1b0cf",
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
        "b8544ca5e8d3871500e63423d6b9b29961fc375451de7921ee25ec998b5f920a",
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


# `ibiskit dump-domain` of one small descriptor per domain kind, and of
# four that the row keys' edge cases reach: codes of two bytes (q = 1024,
# q = 512) and rows of 64 and 132 codes, keyed in more than one step.
DUMP_DOMAIN = {
    "projective_points d3 q4": {"kind": "projective_points", "d": 3, "q": 4},
    "subspaces_k d4 q3 k2": {"kind": "subspaces_k", "d": 4, "q": 3, "k": 2},
    "totally_singular_k symplectic d4 q3 k2":
        {"kind": "totally_singular_k", "form": "symplectic", "d": 4, "q": 3, "k": 2},
    "max_isotropic_family plus d6 q2 latin":
        {"kind": "max_isotropic_family", "form": "plus", "d": 6, "q": 2, "k": 3,
         "family": "latin"},
    "nonsingular_1 minus d4 q4": {"kind": "nonsingular_1", "form": "minus", "d": 4, "q": 4},
    "pair_complement d3 q4 k1": {"kind": "pair_complement", "d": 3, "q": 4, "k": 1},
    "pair_incident d5 q2 k2": {"kind": "pair_incident", "d": 5, "q": 2, "k": 2},
    "quad_forms_plus m2 q4": {"kind": "quad_forms_plus", "m": 2, "q": 4},
    "quad_forms_minus m2 q2": {"kind": "quad_forms_minus", "m": 2, "q": 2},
    "nondegenerate_k hermitian d3 q4 k2":
        {"kind": "nondegenerate_k", "form": "hermitian", "d": 3, "q": 4, "k": 2},
    "projective_points d2 q1024": {"kind": "projective_points", "d": 2, "q": 1024},
    "projective_points d3 q512": {"kind": "projective_points", "d": 3, "q": 512},
    "pair_complement d8 q2 k1": {"kind": "pair_complement", "d": 8, "q": 2, "k": 1},
    "subspaces_k d12 q2 k11": {"kind": "subspaces_k", "d": 12, "q": 2, "k": 11},
}
DUMP_DOMAIN_SHA256 = {
    "projective_points d3 q4":
        "1b80f20a86b27c42ab4e176e7395c825cf06f0e607c38c6bda552bce65133cbd",
    "subspaces_k d4 q3 k2":
        "86677d673bcd398d9ede02705ad34667456ee891690d09bb6d89fa66f524c399",
    "totally_singular_k symplectic d4 q3 k2":
        "b53af9a4994e595f0475116d0b2061d06d3f1bdeb63cf9ae20b7317beef3b29c",
    "max_isotropic_family plus d6 q2 latin":
        "82bb5428efccdf63fb2c1798519df686c4d235c76f500ea5db9d61bcbd2860f1",
    "nonsingular_1 minus d4 q4":
        "a82e5bce4b4d5178c74defe351170838ce34b80b260c42d0b502ea7f1c6183b0",
    "pair_complement d3 q4 k1":
        "a70c12f528d22780cd5d11ea61688edf92ddc4656c1065b734bd27a6a9fdcda5",
    "pair_incident d5 q2 k2":
        "53582a140ff9c6e8c1cc4e1fb231087b609617d4260c0498e08ff1a1e4c9bd12",
    "quad_forms_plus m2 q4":
        "e90b43a0754be79686541fee37e20d3cd8c0aec2afe6a5c14f5eedf47a171456",
    "quad_forms_minus m2 q2":
        "5814a70b49c0036994967a92462041ba3e20d010832df30791f0eec174d09865",
    "nondegenerate_k hermitian d3 q4 k2":
        "2f971f746940c21f7cc65a239c06d3ff2c95608761f533d23b527df988dfdefd",
    "projective_points d2 q1024":
        "2a772286e4ef121b26e97e4f97790658de52b787212f5726b3cca818ecb60787",
    "projective_points d3 q512":
        "b7c167945feb433356c7ea3b4c1da91c8b56d34a7579fb1283561c86db379e95",
    "pair_complement d8 q2 k1":
        "e00b57b3e1ca7029c6d18c81642e4b4cf894e451316acbf8a415536a1fab62ef",
    "subspaces_k d12 q2 k11":
        "9f252104782c401df4496a73e90a881f40f86347946fcdbe4b501aba95723e93",
}


def test_every_domain_kind_is_pinned():
    from ibiskit.actions import DOMAIN_KINDS
    assert {a["kind"] for a in DUMP_DOMAIN.values()} == set(DOMAIN_KINDS)
    assert set(DUMP_DOMAIN) == set(DUMP_DOMAIN_SHA256)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=[pytest.mark.slow] if name in (
        "projective_points d3 q512", "pair_complement d8 q2 k1") else [])
    for name in sorted(DUMP_DOMAIN)])
def test_dump_domain_pinned(capsys, name):
    assert main(["dump-domain", "--action", json.dumps(DUMP_DOMAIN[name])]) == 0
    assert sha256(capsys.readouterr().out) == DUMP_DOMAIN_SHA256[name]


# `ibiskit dump-domain` of incident pair domains, pinned while every
# candidate pair was still decided by its k x k remainder, before the W
# inside each U were listed.
INCIDENT_DUMP_SHA256 = {
    "d4 q3 k1": "40285218176ce834e05426513bde28b2437f91fb3adc68971cee1049d596689f",
    "d4 q4 k1": "c2a2bdfa50aa0c1e1b74e5c2e5122800c040ed1a9d83fc67b401229afc98e7f4",
    "d5 q3 k2": "4a6cfc6bc7b548335d774a1b5140c5c1edcaace513a06593c3aaab6deaf20367",
    "d6 q2 k2": "c76ac9e9719ca2f580bc4435ac058fdcbee097c3a5821e4fa021483e63ced01d",
    "d3 q8 k1": "e0c7d0ea2a9c3d915b5ca4be698fa392e809882c35f91f23e617b480af1a3282",
}


@pytest.mark.parametrize("name", list(INCIDENT_DUMP_SHA256))
def test_incident_pair_dump_pinned(capsys, name):
    d, q, k = (int(part[1:]) for part in name.split())
    action = {"kind": "pair_incident", "d": d, "q": q, "k": k}
    assert main(["dump-domain", "--action", json.dumps(action)]) == 0
    assert sha256(capsys.readouterr().out) == INCIDENT_DUMP_SHA256[name]


# `ibiskit dump-domain` of the totally singular grid: symplectic, plus,
# minus and hermitian forms, d in (4, 6), q in (2, 3, 4), every k up to the
# Witt index that SIZE_CAP admits (hermitian d6 q3 k >= 2 and d6 q4 are
# refused), and both families of the maximal totally singular subspaces of
# Q+(6,3) and Q+(8,2).  A name reads "form d q k" or "form d q family".
TS_DUMP_SHA256 = {
    "symplectic d4 q2 k1":
        "cb8df7c4e403fa4a03c5333cde8abf8ef12365a8d699a9e0b5474c208034bb0b",
    "symplectic d4 q2 k2":
        "e3ecceea092c5510689dca98e9e1b69e99f9bb78d370e356b3d1f0aac053c5bb",
    "symplectic d4 q3 k1":
        "13c0d54bbfe6b2c4cde48cfcd2d42bc022f6abf8eed42d1a84f9736d0ae20c30",
    "symplectic d4 q3 k2":
        "b53af9a4994e595f0475116d0b2061d06d3f1bdeb63cf9ae20b7317beef3b29c",
    "symplectic d4 q4 k1":
        "b564fecdd2856291d18a03c253a214ebb9e24a73f2c7998353901876f7d1c2dd",
    "symplectic d4 q4 k2":
        "fc655841e5591d2a0f8aea451116e2084709938a7fda19d8e9691fcbdda343a8",
    "symplectic d6 q2 k1":
        "6391b632ea3dd2e1ab920510fb6ca3fb493eeb50550b816190806ce70a43dc68",
    "symplectic d6 q2 k2":
        "584c1977787c9ad5351567afa6367058899a605756477c82a2949121b36d23c5",
    "symplectic d6 q2 k3":
        "222e878a99200b8615490c410893acff6d42de74fde169d3a37488050c1bf830",
    "symplectic d6 q3 k1":
        "d67b845dfa5e724d58b9a950007d8aef6f0186e1c8e951def6b80e02a27ec797",
    "symplectic d6 q3 k2":
        "431c55ffa792317a886c64871d152724c0d1cb182f3dbb7b58a6d0a5d9e44dae",
    "symplectic d6 q3 k3":
        "dc63bc449af14fa7a6c54c59959deba17db91c5141c1aaedc56615fc1ae92028",
    "symplectic d6 q4 k1":
        "783487f1e6ad3bc6de7d6bb4880dd16e92d2d60a8d5b6962efa2061aa0296e24",
    "symplectic d6 q4 k2":
        "ee03258008fbec56f645457d8d35186de8bee5a389f3fd48774299801e97fbc5",
    "symplectic d6 q4 k3":
        "4b3de3d7d068a86663758d099e0f315bf0a8d422dae5966ddd6dcf6ba36286d3",
    "plus d4 q2 k1":
        "db675df9ac1ab4e2a9b4619ada44ff1cdbfde3487c80eb4dbab39481e1e59b1b",
    "plus d4 q2 k2":
        "5947d0452b678a4bf91406b186c953f8eb0b7b2fd225dbefd6529354932daf8a",
    "plus d4 q3 k1":
        "8a032ec7ca0225227f5c388cd9a10bce70bd9827785682c8e5de60e8051a998b",
    "plus d4 q3 k2":
        "f95d0fe652949e9bf0654c713b4acb171be2086d1759cf2a1c9e468a54b2734d",
    "plus d4 q4 k1":
        "e691955428869c820b1a3a8117eb5366415163af2a6fa03e7d9c6533b4c94e02",
    "plus d4 q4 k2":
        "1ef533a1cb0bc2b6bf8052f93557122108b5021a6e2a79e0d099ea4c3453378a",
    "plus d6 q2 k1":
        "958d23a5132e109625d19a3cc5b5d9f5003f8b6898c35b195cfa506c1e367a2c",
    "plus d6 q2 k2":
        "292594ba4ddf2cc2d6e508315e6e37369b7823869d27b8b289f78de45c716b5b",
    "plus d6 q2 k3":
        "437761181ccc3a5ec106590ddd84f0203f8b35d160f4f9c36ff7c3bb78aa4676",
    "plus d6 q3 k1":
        "192a535560c48041f26237a830e0726bc4e6da5ae22c82187f001d343b368c74",
    "plus d6 q3 k2":
        "6bcb405b9270a47794e16b5abceb04c79d1ee511cbde708321b60f02ceb91edf",
    "plus d6 q3 k3":
        "25fc7bfb949dc33f781bc1246b7a2d87d9fbc05d40df514d661561a796ed1c5d",
    "plus d6 q4 k1":
        "fc79e229980232a51f7a22363d95e77405ae3b92839d3c79ab0f8ca3afb74a16",
    "plus d6 q4 k2":
        "22a60a49b05cdba38ab64a1b2ed2d3eb4b16d17d1ba0e9b986e32d28a7dfe8d0",
    "plus d6 q4 k3":
        "fccdd5e33d015cb03c6de991af02f254a98c3f5259e43fd2984a1c3952e3fb07",
    "minus d4 q2 k1":
        "96b65c6b2a99b926e986fbce08f2e202c1f132dde8f24db3b274f1d725a17b82",
    "minus d4 q3 k1":
        "d64848131b114177359d40f8a7eb58dade7b45209bca8cfc6534e49d1696fde6",
    "minus d4 q4 k1":
        "98c4825db5f07670b4af8ba6a3de6bc07ee0a66907aadd791bcaf5bac8770d4c",
    "minus d6 q2 k1":
        "6e3c822e67e66c729a1a26860cbad5f8a6188cc95484170bab87d6bff97297ab",
    "minus d6 q2 k2":
        "5961d96dad04e28b32cf71bcd995c444baa814c9148bcdae2fff6394300c09cd",
    "minus d6 q3 k1":
        "765de3c5bfe47cc406589321485e56a8c6f4c5da80355faedc940092fa4c3bf5",
    "minus d6 q3 k2":
        "29a0999163146c114ba981908897e249615891819b78541cf66268742b1f6335",
    "minus d6 q4 k1":
        "4a06c5a2882921d57b576467bc5a5ab245e8ae5763b4d5883bd21c964432b77c",
    "minus d6 q4 k2":
        "d2f0a2c043f2aa2b1b69f5e6dbdd2c13d6ad2ef1ea892dae66ce435d670bc6cb",
    "hermitian d4 q2 k1":
        "345ee4224defe12c5fc6055738b36f31b83227bdc602d7c8ea753129f7bd5362",
    "hermitian d4 q2 k2":
        "cbd2b02fc1dee356b30a993bf0fd30554f2472c968d9e9fa6aa123174345bb7a",
    "hermitian d4 q3 k1":
        "45d6407746ea07d828cfb0ae6ad80db1a882de5091d90a2015ace440c4c52eaa",
    "hermitian d4 q3 k2":
        "b06647a0bb19d99bf10448903c78d184253d36296edc5964ca068d95654a8741",
    "hermitian d4 q4 k1":
        "89fb84c870677a1d2b3a8e19d8045d85fc0df875b325bd485e8beb26188b6b91",
    "hermitian d4 q4 k2":
        "da20b5da63470d24511ba6e60c164bcf6841950ee108eeb764bf7e5cc2c8ce30",
    "hermitian d6 q2 k1":
        "2ea1e056d5020cb272c78bf83c0806c827c94e7f30b48c61053100dc3f51e8c6",
    "hermitian d6 q2 k2":
        "345e89dc17bf46020f2f396cdf6cffc492ef9ac60f3e3e4fc6374770c161d18f",
    "hermitian d6 q2 k3":
        "3c2388c3655f21552a5b2edb62f1dd12598cc649334d699065b8df558bc964cd",
    "hermitian d6 q3 k1":
        "c62b2594f7a26420bbaf3631d8a30b1836fe0dc726a899aa2e9d05759b756a4a",
    "plus d6 q3 greek":
        "11debc59f7fb88786d1dd6142f3b232bb05019ae1efe04f94c3ce2c956d88252",
    "plus d6 q3 latin":
        "b26bf9190e1b20d48bec04c0142987aae518099370434c306bdc119b8f6cf666",
    "plus d8 q2 greek":
        "0fdc6510b7957fe280cbf4726b210c6416f75be3f57bccbc82c64258ae839ca4",
    "plus d8 q2 latin":
        "848b0af63d28696c05616534587c49f602f30d297fe55721f6e99382fa3a4aea",
}


def ts_descriptor(name):
    form, d, q, last = name.split()
    desc = {"form": form, "d": int(d[1:]), "q": int(q[1:])}
    if last.startswith("k"):
        return {"kind": "totally_singular_k", **desc, "k": int(last[1:])}
    return {"kind": "max_isotropic_family", **desc, "k": desc["d"] // 2, "family": last}


@pytest.mark.parametrize("name", list(TS_DUMP_SHA256))
def test_totally_singular_dump_pinned(capsys, name):
    assert main(["dump-domain", "--action", json.dumps(ts_descriptor(name))]) == 0
    assert sha256(capsys.readouterr().out) == TS_DUMP_SHA256[name]
