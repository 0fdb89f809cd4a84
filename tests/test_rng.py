import numpy as np
import pytest

from flowsearch import rng as streams


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for one test; the module's own is restored after it."""
    monkeypatch.setattr(streams, "_memo", streams._Memo())
    return streams


def _footprint(memo):
    return sum(block.nbytes + memo._ENTRY_BYTES for block in memo._memo.values())


# Every key layout and shape the samplers and the diversity protocol draw:
# (count, d) blocks and the protocol's 1-D initial latent.
DRAWS = [
    ((streams.INIT,), (100, 2)),
    ((streams.PROPOSAL, 3, 1), (25, 2)),
    ((streams.PROPOSAL, 0, 0), (1, 2)),
    ((streams.FORWARD, 2), (10, 3)),
    ((streams.DIVERSITY, 0), (2,)),
]


@pytest.mark.parametrize("seed", [0, 12345, 2**31 - 2, 2**40 + 7])
def test_memo_draws_equal_fresh_streams_bitwise(memo, seed):
    for key, shape in DRAWS:
        want = streams.stream(seed, *key).standard_normal(shape)
        for _ in range(2):  # cold, then from the memo
            got = memo.normals(seed, key, shape)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
    # The protocol's per-branch draws: row j is branch j's own stream.
    for i, branches, dim in ((1, 50, 2), (9, 50, 2), (3, 7, 4)):
        want = np.array([streams.stream(seed, streams.DIVERSITY, i, j).standard_normal(dim)
                         for j in range(branches)])
        for _ in range(2):
            got = memo.branch_normals(seed, (streams.DIVERSITY, i), branches, dim)
            assert got.shape == want.shape and np.array_equal(got, want)
    # Under one key and shape, neither draw stands in for the other.
    key = (streams.DIVERSITY, 3)
    block = memo.normals(seed, key, (7, 4))
    assert np.array_equal(block, streams.stream(seed, *key).standard_normal((7, 4)))
    assert not np.array_equal(memo.branch_normals(seed, key, 7, 4), block)


def test_memo_blocks_are_read_only(memo):
    for block in (memo.normals(0, (streams.INIT,), (4, 2)),
                  memo.branch_normals(0, (streams.DIVERSITY, 1), 3, 2)):
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
        with pytest.raises(ValueError):
            block *= 2.0
    assert np.array_equal(memo.normals(0, (streams.INIT,), (4, 2)),
                          streams.stream(0, streams.INIT).standard_normal((4, 2)))


def test_repeated_draw_is_a_memo_hit(memo, monkeypatch):
    calls = []
    fresh = memo.stream
    monkeypatch.setattr(memo, "stream", lambda *key: calls.append(key) or fresh(*key))
    first = memo.normals(3, (streams.PROPOSAL, 1, 0), (5, 2))
    assert memo.normals(3, (streams.PROPOSAL, 1, 0), (5, 2)) is first
    assert len(calls) == 1
    # Another seed, key or shape is another block.
    memo.normals(4, (streams.PROPOSAL, 1, 0), (5, 2))
    memo.normals(3, (streams.PROPOSAL, 1, 1), (5, 2))
    memo.normals(3, (streams.PROPOSAL, 1, 0), (6, 2))
    assert len(calls) == 4
    # One entry for all of an interval's branches.
    branches = memo.branch_normals(3, (streams.DIVERSITY, 2), 50, 2)
    assert memo.branch_normals(3, (streams.DIVERSITY, 2), 50, 2) is branches
    assert len(calls) == 54


def test_memo_keys_are_typed(memo):
    memo.normals(0, (streams.DIVERSITY, 0), (2,))
    memo.branch_normals(0, (streams.DIVERSITY, 1), 2, 2)
    # A size numpy or range() refuses never hits the entry of the size it equals.
    for bad in ((2.0,), (True, 2)):
        with pytest.raises(TypeError):
            memo.normals(0, (streams.DIVERSITY, 0), bad)
    for branches, dim in ((2.0, 2), (2, 2.0)):
        with pytest.raises(TypeError):
            memo.branch_normals(0, (streams.DIVERSITY, 1), branches, dim)


def test_memo_stays_within_its_budget(memo):
    # A block over the budget is returned but not kept, and evicts nothing.
    small = memo.normals(1, (streams.INIT,), (3, 2))
    big = (memo._MEMO_BYTES // 8 + 1,)
    block = memo.normals(1, (streams.INIT,), big)
    assert np.array_equal(block, streams.stream(1, streams.INIT).standard_normal(big))
    assert not block.flags.writeable
    assert [b is small for b in memo._memo.values()] == [True]
    assert memo._memo.nbytes == small.nbytes + memo._ENTRY_BYTES
    # Filling past the budget evicts the least recently used blocks first.
    first = memo.normals(1, (streams.PROPOSAL, 0, 0), (100, 2))
    second = memo.normals(1, (streams.PROPOSAL, 0, 1), (100, 2))
    for b in range(2, 2_000):
        memo.normals(1, (streams.PROPOSAL, 0, b), (100, 2))
        memo.normals(1, (streams.PROPOSAL, 0, 0), (100, 2))  # keeps block 0 recent
        assert memo._memo.nbytes == _footprint(memo) <= memo._MEMO_BYTES
    assert memo.normals(1, (streams.PROPOSAL, 0, 0), (100, 2)) is first
    assert memo.normals(1, (streams.PROPOSAL, 0, 1), (100, 2)) is not second
    assert memo._MEMO_BYTES - _footprint(memo) < 1600 + memo._ENTRY_BYTES
