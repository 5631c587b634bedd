"""Row keys against the void keys over a row's int64 bytes.

A domain's rows were once sorted by void keys, one per row over the
row's int64 bytes, and looked up by a binary search on them.
linalg.row_keys gives one uint64 key per row whose digits fit in 64 bits,
and one void key of the row's codes packed to bytes (uint8 or uint16)
for a longer row; either must order the rows as the int64 void keys do,
give the same distinctness verdict, and find exactly the member rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibiskit import linalg
from ibiskit.actions import ActionDomain, ActionError
from ibiskit.gf import field_of_order


def void_keys(rows):
    """The reference: one void key per row, ordering as the row's bytes."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(f"V{8 * rows.shape[1]}").ravel()


def _rows(rng, q, w, n):
    """n rows of w codes drawn from a few templates, each with a few codes
    changed, so that rows repeat and share long prefixes."""
    templates = rng.integers(0, q, (rng.integers(1, 4), w))
    rows = templates[rng.integers(0, len(templates), n)]
    for i in range(n):
        at = rng.integers(0, w, rng.integers(0, 3))
        rows[i, at] = rng.integers(0, q, len(at))
    return rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([2, 3, 4, 1024]), w=st.integers(1, 150), n=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_row_keys_order_distinctness_and_lookup_match_void_keys(q, w, n, seed):
    rng = np.random.default_rng(seed)
    rows = _rows(rng, q, w, n)
    ref = void_keys(rows)
    keys = linalg.row_keys(q, rows)
    assert np.array_equal(np.argsort(keys, kind="stable"), np.argsort(ref, kind="stable"))
    distinct = len(np.unique(ref)) == n
    assert (len(np.unique(keys)) == n) == distinct
    F = field_of_order(q)
    if not distinct:
        with pytest.raises(ActionError, match="not pairwise distinct"):
            ActionDomain(rows, F, w, ())
        rows = rows[np.unique(ref, return_index=True)[1]]
    dom = ActionDomain(rows, F, w, ())
    assert np.array_equal(dom.codes, rows[np.argsort(void_keys(rows), kind="stable")])
    assert np.array_equal(dom.indices(dom.codes), np.arange(dom.N))
    # a row that differs from a member in one code, at any position, is
    # refused
    members = {r.tobytes() for r in dom.codes}
    for row in dom.codes[:5]:
        for j in rng.integers(0, w, 4).tolist() + [0, w - 1]:
            other = row.copy()
            other[j] = (other[j] + rng.integers(1, q)) % q
            if other.tobytes() not in members:
                with pytest.raises(ActionError, match="not in the domain"):
                    dom.indices(other[None])


# (q, w, the key's dtype): the widest rows whose digits fit in 64 bits
# (2^64, 3^40 < 2^64, 1024^6 = 2^60), and one code more
BOUNDARIES = [(2, 64, np.uint64), (2, 65, np.dtype("V65")),
              (3, 40, np.uint64), (3, 41, np.dtype("V41")),
              (1024, 6, np.uint64), (1024, 7, np.dtype("V14"))]


@pytest.mark.parametrize("q,w,dtype", BOUNDARIES,
                         ids=[f"q{q}-w{w}" for q, w, _ in BOUNDARIES])
def test_row_keys_switch_to_packed_bytes_past_64_bits(q, w, dtype):
    # the top code in every position, the low and high byte of a code
    # above 255 alone, rows that differ only in their first or last code,
    # and a repeated row
    top = np.full(w, q - 1)
    rows = [top, np.zeros(w, dtype=np.int64), top - np.eye(w, dtype=np.int64)[0],
            top - np.eye(w, dtype=np.int64)[-1], np.eye(w, dtype=np.int64)[-1], top]
    if q > 256:
        rows += [np.full(w, 255), np.full(w, 256), np.full(w, 511)]
    rng = np.random.default_rng(w)
    rows = np.array(rows + list(rng.integers(0, q, (20, w))))
    keys = linalg.row_keys(q, rows)
    assert keys.dtype == dtype
    ref = void_keys(rows)
    assert np.array_equal(np.argsort(keys, kind="stable"), np.argsort(ref, kind="stable"))
    for got, want in zip(np.unique(keys, return_index=True, return_inverse=True)[1:],
                         np.unique(ref, return_index=True, return_inverse=True)[1:]):
        assert np.array_equal(got, want)
    F = field_of_order(q)
    with pytest.raises(ActionError, match="not pairwise distinct"):
        ActionDomain(rows, F, w, ())
    members = rows[np.unique(ref, return_index=True)[1]]
    dom = ActionDomain(members[1:], F, w, ())
    assert np.array_equal(dom.codes, members[1:])     # members come sorted by ref
    assert np.array_equal(dom.indices(members[:0:-1]), np.arange(dom.N)[::-1])
    with pytest.raises(ActionError, match="not in the domain"):
        dom.indices(members[:1])


@pytest.mark.parametrize("bad", [-1, 4])
def test_codes_outside_the_field_are_refused(bad):
    F = field_of_order(4)
    rows = np.array([[0, 1], [2, 3]])
    dom = ActionDomain(rows, F, 2, ())
    with pytest.raises(ActionError, match="not in the domain"):
        dom.indices(np.array([[bad, 0]]))
    with pytest.raises(ActionError, match="not elements of"):
        ActionDomain(np.array([[0, 1], [bad, 3]]), F, 2, ())
