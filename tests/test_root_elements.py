"""The socles built from root elements: pinned search outputs and
generator stacks, a guard on the generator count and time of SO+(8, 3),
and the isometry conditions of the root-element kernel.

SEARCH_SHA256 digests the search outputs (order, IBIS verdict,
enumeration lengths, nodes and witnesses, minimal base sizes) of each
orthogonal and unitary action of the grid below; LINEAR_SHA256 digests
the SL, GL and Sp generator stacks.  Both were recorded before the
orthogonal and unitary socles were rebuilt from root elements, which
changed neither.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from ibiskit.actions import build_domain, build_group_action
from ibiskit.gf import field_of_order
from ibiskit.groups import GroupSpec, _preserving, _root_elements, classical_generators
from ibiskit.ibis import (
    decide_ibis, enumerate_irredundant_base_sizes, minimal_base_sizes,
)
from ibiskit.linalg import (
    eval_bilinear_batch, eval_quadratic_batch, hermitian_form, mat_mul, quadratic_minus,
    quadratic_plus,
)

BUDGET = 1000
MAX_POINTS = 1400


def _actions(form, d, q, k_max):
    """Points, the non-singular points (even q, quadratic forms) and the
    totally singular lines (when the Witt index k_max allows), none when
    the space has more than MAX_POINTS points."""
    field_q = q * q if form == "hermitian" else q
    if (field_q**d - 1) // (field_q - 1) > MAX_POINTS:
        return []
    out = [("pp", {"kind": "projective_points", "d": d, "q": field_q})]
    if form != "hermitian" and q % 2 == 0:
        out.append(("ns", {"kind": "nonsingular_1", "form": form, "d": d, "q": q}))
    if form == "hermitian":
        out.append(("iso", {"kind": "totally_singular_k", "form": form, "d": d, "q": q,
                            "k": 1}))
    if k_max >= 2:
        out.append(("ts2", {"kind": "totally_singular_k", "form": form, "d": d, "q": q,
                            "k": 2}))
    return out


def _search_grid():
    """(name, group, action) for every orthogonal family with d in
    (4, 6, 8) and q in (2, 3, 4) (Omega at even q), GU and SU with d = 4,
    and SU(3, 2) on its 9 isotropic points; at most MAX_POINTS points."""
    out = []
    for fam in ("GOplus", "GOminus", "SOplus", "SOminus", "OmegaPlus", "OmegaMinus"):
        plus = fam.endswith(("plus", "Plus"))
        form = "quadratic_plus" if plus else "quadratic_minus"
        for d in (4, 6, 8):
            for q in (2, 3, 4):
                if fam.startswith("Omega") and q % 2:
                    continue
                for name, action in _actions(form, d, q, d // 2 - (not plus)):
                    out.append((f"{fam}({d},{q}) {name}", (fam, d, q), action))
    for fam in ("GU", "SU"):
        for q in (2, 3, 4):
            for name, action in _actions("hermitian", 4, q, 2):
                out.append((f"{fam}(4,{q}) {name}", (fam, 4, q), action))
    out.append(("SU(3,2) iso", ("SU", 3, 2),
                {"kind": "totally_singular_k", "form": "hermitian", "d": 3, "q": 2,
                 "k": 1}))
    return [(name, spec, action) for name, spec, action in out
            if build_domain(action).N <= MAX_POINTS]


def search_sha256(G):
    """sha256 of G's order, IBIS verdict, enumeration (lengths, complete,
    nodes, witnesses) and minimal base sizes, each search at BUDGET."""
    enum = enumerate_irredundant_base_sizes(G, BUDGET)
    mins = minimal_base_sizes(G, BUDGET)
    report = {
        "order": str(G.order()),
        "verdict": decide_ibis(G, BUDGET).serialize(),
        "enumeration": [sorted(enum.lengths), enum.complete, enum.nodes,
                        [[L, [int(p) for p in enum.witnesses[L]]]
                         for L in sorted(enum.witnesses)]],
        "minimal": [sorted(mins.lengths), mins.complete, mins.nodes],
    }
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _linear_grid():
    """The SL, GL and Sp specs whose generator stacks are pinned."""
    out = {}
    for fam in ("SL", "GL"):
        out[fam] = [GroupSpec(fam, d, q) for d in (2, 3, 4, 5) for q in (2, 3, 4, 5, 8, 9)]
    out["Sp"] = [GroupSpec("Sp", d, q) for d in (2, 4, 6, 8) for q in (2, 3, 4, 5, 8, 9)]
    return out


def stack_sha256(specs):
    """sha256 over the specs' generator stacks: each one's shape and bytes."""
    h = hashlib.sha256()
    for spec in specs:
        M, _ = classical_generators(spec)
        h.update(np.array(M.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(M, dtype=np.int64).tobytes())
    return h.hexdigest()


SEARCH_SHA256 = {
    "GOplus(4,2) pp":
        "35f942d9e51dc797776f858710e4bba84b372ec0363bb767ab0a5d59dbbd7087",
    "GOplus(4,2) ns":
        "b8e8fa29056506e41b67badb668c1fb03cfeb7877fabcb3f21066aae6bd7d988",
    "GOplus(4,2) ts2":
        "75523699f8d41ab2aed85b7eacd1e8076e9826bfae3e2f324d2a3e9110f7466f",
    "GOplus(4,3) pp":
        "89f9f4d0fbc252c3f5ef4c27ea6fce2df679fb53d7e8c00898a1d14eb4c31729",
    "GOplus(4,3) ts2":
        "ca5e8d9465107b08204cd2a0b97149c1b7935dcfce993c37e80b0d860217cf71",
    "GOplus(4,4) pp":
        "34f77d8cf1590c156dd24ac6d747630a19f4c05906bd38ca4a4418c473c4348e",
    "GOplus(4,4) ns":
        "67d6cd86fb5bf5e7af0685381b0deef40641708ed594f43abfe5c8f96e110890",
    "GOplus(4,4) ts2":
        "c1ec7ea5bd0c8a780d35a4e809b3e901671470531007b26316c96fbb5ea845be",
    "GOplus(6,2) pp":
        "3f703937f247ae282da3e6806fc4cae729aadc136cfa09dc20c957cbbb2f0f81",
    "GOplus(6,2) ns":
        "e3a4ea52a611b5c379824739abbc6582d2e7802728f5ad570c3c407ee5f8e9c1",
    "GOplus(6,2) ts2":
        "40009e01e09016d047abdfccb874b65f310adebb10ad6d109ef86a5d05c33f3e",
    "GOplus(6,3) pp":
        "ccc6ff0a74fb7aa34ea1c1deeed9f451a2146b436c9887147ebef57c94ddd4f0",
    "GOplus(6,3) ts2":
        "bea6145d4302e6ff29565d24e2cdeaa58f495d38a3a18075b526859d610777ba",
    "GOplus(6,4) pp":
        "622b84da4e7dd75e69f68ae927d2d4d6137cceab1b350686a7c464a7761660df",
    "GOplus(6,4) ns":
        "393bb4e11fc10e40a480aa80c95b5525eea27130c8e888a9242f5d5c7001ebcd",
    "GOplus(8,2) pp":
        "502f8f451cf4a19df13b4d77a7355b55bf5be8e0c8be25836c8adc599eae085b",
    "GOplus(8,2) ns":
        "683ccde73bcee291eb1cb0849372543dff1803a716de21cc5e7c1dcc326d0440",
    "GOminus(4,2) pp":
        "30b91b95c7b0e5d353e24ecd34a4fbf8736de2e49ad76c2e33d3b2efb164c2c7",
    "GOminus(4,2) ns":
        "4e72e14023a182917ec105194e97e507080e99d16afbb3422c7f066806d6cb50",
    "GOminus(4,3) pp":
        "ae3a7e5ee22919be58b32a74c64c9f01694daa4d8d5dcab1e295871747aaace3",
    "GOminus(4,4) pp":
        "d11c64db94ad5445c82a661c13803cd6208a5c01a5b0779daffb11a74d3a829d",
    "GOminus(4,4) ns":
        "e8ef769eeba19180f0925ae2268c34178c8439b38ee499a1f0d28fe7bee5c038",
    "GOminus(6,2) pp":
        "3a1d99a95fda223df4fe1d6318b1517db48f9c488f472223cfd19a713e211484",
    "GOminus(6,2) ns":
        "d94ff4297b42570387bd157395d74e3a1c43af0e1416c8132ebd6e41a0e08053",
    "GOminus(6,2) ts2":
        "d69841124797a2213731750abb5194e6ec24802b358b8465a9009be6ef6e2929",
    "GOminus(6,3) pp":
        "6b868298e2fad945c9c56c6d56baee03a1f1378c020d9049c6824c857c60ecc1",
    "GOminus(6,3) ts2":
        "bd67f9b5a8e16b2991333e99e2162a85cc48b76765664d57e8f2cbce2c6d48a8",
    "GOminus(6,4) pp":
        "1f3a787d9c82e650758609daf1077f6979721451285e2022453bb736e5f11eeb",
    "GOminus(6,4) ns":
        "77379582ca3dc945533d5b7f67bcd81c9063ace08bb832e9a5539b94cac7b531",
    "GOminus(6,4) ts2":
        "34effbf0cbd7a2b91cb81854022affe4558fa1fa592743646a75f54805184829",
    "GOminus(8,2) pp":
        "e515ef51845716336ebdb6f92f7bf62b07d647a964d226d110e884d381edf83a",
    "GOminus(8,2) ns":
        "9ae57951e25aff99f08e47aa6a7c0e404989e86136f833f27d837e70cdfe5e55",
    "GOminus(8,2) ts2":
        "5f572065346ba456435df712782b188f0d4cba30d83919c76dc0c5c867e49329",
    "SOplus(4,2) pp":
        "35f942d9e51dc797776f858710e4bba84b372ec0363bb767ab0a5d59dbbd7087",
    "SOplus(4,2) ns":
        "b8e8fa29056506e41b67badb668c1fb03cfeb7877fabcb3f21066aae6bd7d988",
    "SOplus(4,2) ts2":
        "75523699f8d41ab2aed85b7eacd1e8076e9826bfae3e2f324d2a3e9110f7466f",
    "SOplus(4,3) pp":
        "247d068fdc8d3ccf29e98a8b6c2cac5d5d41896817f67fda3d7c4418259b9c2b",
    "SOplus(4,3) ts2":
        "55fa4ac9934935d2389cee668a00a06ec220175d617a1ff961e021d38f357a79",
    "SOplus(4,4) pp":
        "34f77d8cf1590c156dd24ac6d747630a19f4c05906bd38ca4a4418c473c4348e",
    "SOplus(4,4) ns":
        "67d6cd86fb5bf5e7af0685381b0deef40641708ed594f43abfe5c8f96e110890",
    "SOplus(4,4) ts2":
        "c1ec7ea5bd0c8a780d35a4e809b3e901671470531007b26316c96fbb5ea845be",
    "SOplus(6,2) pp":
        "3f703937f247ae282da3e6806fc4cae729aadc136cfa09dc20c957cbbb2f0f81",
    "SOplus(6,2) ns":
        "e3a4ea52a611b5c379824739abbc6582d2e7802728f5ad570c3c407ee5f8e9c1",
    "SOplus(6,2) ts2":
        "40009e01e09016d047abdfccb874b65f310adebb10ad6d109ef86a5d05c33f3e",
    "SOplus(6,3) pp":
        "6c539b55c1b342144ec843a00008fc9cf649eead4d4d62d8c5f6448b256b5185",
    "SOplus(6,3) ts2":
        "007918197052d1fa986b8f64f96fa26ad25918af09a43fc6d91ace0d5bd846d2",
    "SOplus(6,4) pp":
        "622b84da4e7dd75e69f68ae927d2d4d6137cceab1b350686a7c464a7761660df",
    "SOplus(6,4) ns":
        "393bb4e11fc10e40a480aa80c95b5525eea27130c8e888a9242f5d5c7001ebcd",
    "SOplus(8,2) pp":
        "502f8f451cf4a19df13b4d77a7355b55bf5be8e0c8be25836c8adc599eae085b",
    "SOplus(8,2) ns":
        "683ccde73bcee291eb1cb0849372543dff1803a716de21cc5e7c1dcc326d0440",
    "SOminus(4,2) pp":
        "30b91b95c7b0e5d353e24ecd34a4fbf8736de2e49ad76c2e33d3b2efb164c2c7",
    "SOminus(4,2) ns":
        "4e72e14023a182917ec105194e97e507080e99d16afbb3422c7f066806d6cb50",
    "SOminus(4,3) pp":
        "8c98850f0c22a2f6dca6451bddc74ccb7eb26cc5c1cb7b7eeee5d6686b22eb43",
    "SOminus(4,4) pp":
        "d11c64db94ad5445c82a661c13803cd6208a5c01a5b0779daffb11a74d3a829d",
    "SOminus(4,4) ns":
        "e8ef769eeba19180f0925ae2268c34178c8439b38ee499a1f0d28fe7bee5c038",
    "SOminus(6,2) pp":
        "3a1d99a95fda223df4fe1d6318b1517db48f9c488f472223cfd19a713e211484",
    "SOminus(6,2) ns":
        "d94ff4297b42570387bd157395d74e3a1c43af0e1416c8132ebd6e41a0e08053",
    "SOminus(6,2) ts2":
        "d69841124797a2213731750abb5194e6ec24802b358b8465a9009be6ef6e2929",
    "SOminus(6,3) pp":
        "4cece04dc02f375f8bbb810c79146fb55718e51ddf4ea2ddf34fa6264452ae8c",
    "SOminus(6,3) ts2":
        "6f293f42f7b30d05a28562e76645cb63cc97847697bae08864d6e3595ed9cfea",
    "SOminus(6,4) pp":
        "1f3a787d9c82e650758609daf1077f6979721451285e2022453bb736e5f11eeb",
    "SOminus(6,4) ns":
        "77379582ca3dc945533d5b7f67bcd81c9063ace08bb832e9a5539b94cac7b531",
    "SOminus(6,4) ts2":
        "34effbf0cbd7a2b91cb81854022affe4558fa1fa592743646a75f54805184829",
    "SOminus(8,2) pp":
        "e515ef51845716336ebdb6f92f7bf62b07d647a964d226d110e884d381edf83a",
    "SOminus(8,2) ns":
        "9ae57951e25aff99f08e47aa6a7c0e404989e86136f833f27d837e70cdfe5e55",
    "SOminus(8,2) ts2":
        "5f572065346ba456435df712782b188f0d4cba30d83919c76dc0c5c867e49329",
    "OmegaPlus(4,2) pp":
        "b7b2372aecd956916defe624ea5a3167f2f25981d98d0c5452750702c64a1f93",
    "OmegaPlus(4,2) ns":
        "f34525d221b38dc9a89e6c67ea0494f1adddaa54cb9a6ba73a5f4fb29abf0c69",
    "OmegaPlus(4,2) ts2":
        "b6d028537fb1867b73cd244dec4b6a5cea194380db90b8d65511790c440e7a78",
    "OmegaPlus(4,4) pp":
        "582de08eb591d3f15e9e24699c104a19ab3bd26bd6f850dddd8e9ee306ce50e0",
    "OmegaPlus(4,4) ns":
        "e484cd6328b0a5ca9dab34b2bcc44457de4650345666e25070da45242f158fac",
    "OmegaPlus(4,4) ts2":
        "339885e9b8da3b1fb068d0d2c58214b6c10b6585daeec09642ffaa6706366454",
    "OmegaPlus(6,2) pp":
        "2eec806e19908c0932ea38347389ef2f893dbab1cb0da90bbb987c7b7307cd54",
    "OmegaPlus(6,2) ns":
        "577c9c5b625f20b1c3286b94a0d7b8b368d492fbe46947933d451d7159188d0e",
    "OmegaPlus(6,2) ts2":
        "c26e428f6793b6d4aeb456553419121b972fbad5d123a1e4caee9dc8f27a53ed",
    "OmegaPlus(6,4) pp":
        "32bdb93e73aa37bd8a0fea31a36b2977366a3c9cc9e68023342360ff30b0591f",
    "OmegaPlus(6,4) ns":
        "1adb0bf88cb6adab82a2ee66839b75bd3dc4ab2a4af3af3faeef0a65e38f8530",
    "OmegaPlus(8,2) pp":
        "704cc7cda52c479ad62e05af3b4693b92e44a489845e7bbfd1c169f86fc5f403",
    "OmegaPlus(8,2) ns":
        "7ac3df62988557473431898c800397bde9ae4862295348edbdc90e0b54dfc84d",
    "OmegaMinus(4,2) pp":
        "6f55864cdbbde9f4c34cc098a87a9ed0502966af898c9ad76266186a4c01ad59",
    "OmegaMinus(4,2) ns":
        "3f76ddb54d559043b7cafa3632006a63923096b4c730e1b3957c144fbb08eff4",
    "OmegaMinus(4,4) pp":
        "ccbf94c0853c01fa18c975402246a984502184c34c8c032e8e01cfcac1b82771",
    "OmegaMinus(4,4) ns":
        "e60c0e75ad02578957f2406f4520d9c0fa003c04a316b55b484e49ee3404674a",
    "OmegaMinus(6,2) pp":
        "5a315e30deb28b519794886f9b9f00cdfbce38d73a24f167729f9fbd720b4455",
    "OmegaMinus(6,2) ns":
        "31b711353ab413d821f49ed097aefca8a2619218658f2e4f78ee8faf768ee97d",
    "OmegaMinus(6,2) ts2":
        "14192148997433d8dbf1ae88633fd0eefc2dafaeded1576fcf8ca406659616fa",
    "OmegaMinus(6,4) pp":
        "9e9bea24e4d1a915448a8e67439759d44a237400dfa31b31c67a2ab58ae3c7c5",
    "OmegaMinus(6,4) ns":
        "6d035cbc1e46a657384e0b3a13c2c99992575610b9fed820e124453f935b8f4a",
    "OmegaMinus(6,4) ts2":
        "137a88f3328ceac8ca6efb398784453bfeb377936220ea9af31d2d6cfebedae4",
    "OmegaMinus(8,2) pp":
        "f87d2591992cc8f0afe909d7df0414d1465458c4a53530dc2239ae282a9e5f71",
    "OmegaMinus(8,2) ns":
        "19ff0d65222d638b01251e5d684a7549c20c680305da52ae8b63a0d77ce4a36a",
    "OmegaMinus(8,2) ts2":
        "ed3b504ef119b90bbfeb72ca321adb61aeac55923b95e9712b706a2cd33ae515",
    "GU(4,2) pp":
        "0826c17e188a1f4bec7bc90229062d566fb6d0db1d5e7fc0476976f19e40fb13",
    "GU(4,2) iso":
        "bc9f3a7b5243047907178f6d5a71e274c2ffe2cabc863fa68e85dea8e296e860",
    "GU(4,2) ts2":
        "c1bbbe33912aac3c320755007af2593cceb1a5261f7ad08a35d2084a13f3cffb",
    "GU(4,3) pp":
        "f38a1c5690a5f9479ee2ca076ff6766bd65bb8e11fe25fbd501b6fa02abd7955",
    "GU(4,3) iso":
        "43466cb4ee0291b8e2b6892b6f3b0bffa59bd808af1b6e2bb43fcbdfcc6c75e5",
    "GU(4,3) ts2":
        "748658614749a2a761dccec1f3ca98be643ca062b836645a40e96781259e20a2",
    "SU(4,2) pp":
        "0826c17e188a1f4bec7bc90229062d566fb6d0db1d5e7fc0476976f19e40fb13",
    "SU(4,2) iso":
        "bc9f3a7b5243047907178f6d5a71e274c2ffe2cabc863fa68e85dea8e296e860",
    "SU(4,2) ts2":
        "c1bbbe33912aac3c320755007af2593cceb1a5261f7ad08a35d2084a13f3cffb",
    "SU(4,3) pp":
        "aa57e73f9965b8554e00e57e507419c1b9a32848dd7ff0b19cb2c70b95d97909",
    "SU(4,3) iso":
        "d1b616ecbdcb7c64a22a273d2e911f6b0a1738225606599ac6188fd7f0e3b35e",
    "SU(4,3) ts2":
        "ce13d5d1547a6137d26a4b8a105c70e210716f5ffd608c6be8a893018e5dbae2",
    "SU(3,2) iso":
        "fc63d31fdf618220e141d9741af5528157995203073a4f14c464cd1c45a773d4",
}
LINEAR_SHA256 = {
    "SL": "bac9e9623e7dcbc64ec085bd49c1ed0130944ba8c82a4749f3d0667bbb81b207",
    "GL": "e3096b0e7d365059deb70f32d62efa975b27b1f75611edd4d93e43e3ba2c3c93",
    "Sp": "fac882b3937917248f8e6b172340c3e5a82d3bf21e86d6031c00a9b8d028109e",
}

SEARCH_GRID = _search_grid()


def test_search_grid_is_the_pinned_one():
    assert [name for name, _, _ in SEARCH_GRID] == list(SEARCH_SHA256)


@pytest.mark.parametrize("name,spec,action", SEARCH_GRID,
                         ids=[name for name, _, _ in SEARCH_GRID])
def test_search_outputs_pinned(name, spec, action):
    G = build_group_action(GroupSpec(*spec), build_domain(action))
    assert search_sha256(G) == SEARCH_SHA256[name]


@pytest.mark.parametrize("family", sorted(LINEAR_SHA256))
def test_linear_and_symplectic_stacks_pinned(family):
    assert stack_sha256(_linear_grid()[family]) == LINEAR_SHA256[family]


def test_so83_takes_few_generators():
    # one reflection per non-singular point took 2159
    M, _ = classical_generators(GroupSpec("SOplus", 8, 3))
    assert len(M) <= 64


# sha256 of decide_ibis(G).serialize() (sorted keys) for SO+(8, 3) on
# the greek family of its maximal totally singular subspaces (1120
# points): NotIBIS with lengths {9, 10} after 890 nodes.
SO83_GREEK_SHA256 = "91682de5910afad5fc86671cd3e939c13208d8896c42966ea4ac79c84da35e22"


def test_so83_greek_family_decision_pinned_and_fast():
    start = time.perf_counter()
    dom = build_domain({"kind": "max_isotropic_family", "form": "quadratic_plus",
                        "d": 8, "q": 3, "k": 4, "family": "greek"})
    G = build_group_action(GroupSpec("SOplus", 8, 3), dom)
    report = json.dumps(decide_ibis(G).serialize(), sort_keys=True)
    assert time.perf_counter() - start < 3
    assert hashlib.sha256(report.encode()).hexdigest() == SO83_GREEK_SHA256


def _random_rows(F, d, n, rng, keep):
    """n random nonzero rows of GF(q)^d that the predicate keep admits."""
    out = []
    while len(out) < n:
        x = rng.integers(0, F.q, size=d)
        if x.any() and keep(x):
            out.append(x)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("kind,d,q", [("plus", 6, 3), ("minus", 6, 4), ("minus", 4, 5),
                                      ("hermitian", 5, 2), ("hermitian", 4, 3)])
def test_root_elements_are_isometries(kind, d, q):
    """E(u, v) for random singular u and v orthogonal to u, with a = -Q(v)
    or the least a with a + a^q = -h(v, v), preserves the form exactly, as
    does the reflection r_x of a random non-singular x, which maps x to
    -x and fixes x^perp."""
    F = field_of_order(q * q if kind == "hermitian" else q)
    form = {"plus": quadratic_plus, "minus": quadratic_minus,
            "hermitian": hermitian_form}[kind](F, d)
    rng = np.random.default_rng(d * q)
    if kind == "hermitian":
        value = lambda X: eval_bilinear_batch(form, X, X)
    else:
        value = lambda X: eval_quadratic_batch(form, X)
    polar = lambda x, y: int(eval_bilinear_batch(form, x[None], y[None])[0])
    U = _random_rows(F, d, 20, rng, lambda x: value(x[None])[0] == 0)
    V = np.array([_random_rows(F, d, 1, rng, lambda y: polar(y, u) == 0)[0] for u in U])
    if kind == "hermitian":
        codes = np.arange(F.q)
        trace = F.add(codes, form.conj(codes))
        A = (trace == F.neg(value(V))[:, None]).argmax(axis=1)
        shift = np.flatnonzero(trace)[0]        # an a that moves a + a^q
    else:
        A, shift = F.neg(value(V)), 1
    assert _preserving(form, _root_elements(form, U, V, A), 0).all()
    assert not _preserving(form, _root_elements(form, U, V, F.add(A, shift)), 0).any()
    if kind == "hermitian":
        return
    X = _random_rows(F, d, 10, rng, lambda x: value(x[None])[0] != 0)
    R = _root_elements(form, X, 0 * X, F.div(F.neg(1), value(X)))
    assert _preserving(form, R, 0).all()
    for x, r in zip(X, R):
        assert (mat_mul(F, x[None], r)[0] == F.neg(x)).all()
        y = _random_rows(F, d, 1, rng, lambda y: polar(y, x) == 0)
        assert (mat_mul(F, y, r) == y).all()
