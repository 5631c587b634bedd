"""Row keys against the void keys they replace.

A domain's rows were once sorted by void keys, one per row over the
row's int64 bytes, and looked up by a binary search on them.
linalg.row_keys gives one int64 key per row instead, built a chunk of
codes at a time; it must order the rows as the void keys did, give the
same distinctness verdict, and find exactly the member rows.
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
    keys, _ = linalg.row_keys(q, rows)
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
    # a row that differs from a member in one chunk only, the last one
    # included, is refused
    members = {r.tobytes() for r in dom.codes}
    for row in dom.codes[:5]:
        for a, b in linalg._key_chunks(w, q if q <= 256 else 1024):
            other = row.copy()
            j = rng.integers(a, b)
            other[j] = (other[j] + rng.integers(1, q)) % q
            if other.tobytes() not in members:
                with pytest.raises(ActionError, match="not in the domain"):
                    dom.indices(other[None])


def test_key_chunks_fill_63_bits_then_leave_room_for_the_rank():
    assert linalg._key_chunks(150, 2) == [(0, 63), (63, 106), (106, 149), (149, 150)]
    assert linalg._key_chunks(12, 3) == [(0, 12)]
    assert linalg._key_chunks(20, 1024) == [(0, 6), (6, 10), (10, 14), (14, 18), (18, 20)]


@pytest.mark.parametrize("bad", [-1, 4])
def test_codes_outside_the_field_are_refused(bad):
    F = field_of_order(4)
    rows = np.array([[0, 1], [2, 3]])
    dom = ActionDomain(rows, F, 2, ())
    with pytest.raises(ActionError, match="not in the domain"):
        dom.indices(np.array([[bad, 0]]))
    with pytest.raises(ActionError, match="not elements of"):
        ActionDomain(np.array([[0, 1], [bad, 3]]), F, 2, ())
