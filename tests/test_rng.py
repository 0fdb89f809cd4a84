import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsearch import rng as streams
from flowsearch.harness import _protocol_diversity, load_config, run_experiment


@pytest.fixture
def memo():
    """An empty block cache for one test, emptied again after it."""
    streams._block.cache_clear()
    yield streams
    streams._block.cache_clear()


def _kept(memo):
    return memo._block.cache_info().currsize


# Every key layout and shape the samplers and the diversity protocol draw:
# (count, d) blocks and the protocol's 1-D initial latent.
DRAWS = [
    ((streams.INIT,), (100, 2)),
    ((streams.PROPOSAL, 3, 1), (25, 2)),
    ((streams.PROPOSAL, 0, 0), (1, 2)),
    ((streams.FORWARD, 2), (10, 3)),
    ((streams.DIVERSITY, 0), (2,)),
]
# The protocol's per-branch layouts: (interval key, branches, dim).
BRANCHES = [
    ((streams.DIVERSITY, 1), 50, 2),
    ((streams.DIVERSITY, 9), 50, 2),
    ((streams.DIVERSITY, 3), 7, 4),
    ((streams.DIVERSITY, 2**64 - 1), 5, 3),  # counter word 2 full, branch j in word 3
]


@pytest.mark.parametrize("seed", [0, 12345, 2**31 - 2, 2**40 + 7])
def test_memo_draws_equal_fresh_streams_bitwise(memo, seed):
    for key, shape in DRAWS:
        want = streams.stream(seed, *key).standard_normal(shape)
        for _ in range(2):  # cold, then from the cache
            got = memo.normals(seed, key, shape)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
    # The protocol's per-branch draws: row j is branch j's own stream.
    for key, branches, dim in BRANCHES:
        want = np.array([streams.stream(seed, *key, j).standard_normal(dim)
                         for j in range(branches)])
        for _ in range(2):
            got = memo.branch_normals(seed, key, branches, dim)
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


def test_branch_blocks_are_c_contiguous_rows(memo):
    # Kept and past the cap, cold and from the cache: one (branches, dim) array.
    for branches in (3, 129):
        for _ in range(2):
            block = memo.branch_normals(0, (streams.DIVERSITY, 1), branches, 2)
            assert block.shape == (branches, 2) and block.flags.c_contiguous


def test_repeated_draw_is_a_memo_hit(memo, monkeypatch):
    calls = []
    fresh = memo.shared_stream
    monkeypatch.setattr(memo, "shared_stream",
                        lambda seed, key: calls.append(key) or fresh(seed, key))
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
    # A block over the cap comes back read-only, equal to a fresh stream,
    # and is not kept.
    small = memo.normals(1, (streams.INIT,), (3, 2))
    big = memo.normals(1, (streams.INIT,), (129, 2))
    assert np.array_equal(big, streams.stream(1, streams.INIT).standard_normal((129, 2)))
    branches = memo.branch_normals(1, (streams.DIVERSITY, 1), 129, 2)
    assert np.array_equal(branches, [streams.stream(1, streams.DIVERSITY, 1, j).standard_normal(2)
                                     for j in range(129)])
    for block in (big, branches):
        assert block.nbytes > memo._KEPT_BYTES and not block.flags.writeable
    assert _kept(memo) == 1 and memo.normals(1, (streams.INIT,), (3, 2)) is small
    assert memo.normals(1, (streams.INIT,), (129, 2)) is not big
    # A block of exactly the cap is kept.
    assert memo.normals(1, (streams.INIT,), (128, 2)).nbytes == memo._KEPT_BYTES
    assert _kept(memo) == 2
    # Filling past 128 blocks evicts the least recently used blocks first.
    first = memo.normals(1, (streams.PROPOSAL, 0, 0), (100, 2))
    second = memo.normals(1, (streams.PROPOSAL, 0, 1), (100, 2))
    for b in range(2, 2_000):
        memo.normals(1, (streams.PROPOSAL, 0, b), (100, 2))
        memo.normals(1, (streams.PROPOSAL, 0, 0), (100, 2))  # keeps block 0 recent
        assert _kept(memo) <= 128
    assert _kept(memo) == 128
    assert memo.normals(1, (streams.PROPOSAL, 0, 0), (100, 2)) is first
    assert memo.normals(1, (streams.PROPOSAL, 0, 1), (100, 2)) is not second


def test_memo_serves_a_seeds_runs_on_every_process(memo, monkeypatch):
    """Keys name no process, so once a seed's svdd run and diversity
    protocol have run on one process, the same run on another process finds
    every block in the cache: it fails if the cache is too small or a key
    names the process."""
    calls = []
    fresh = memo.shared_stream
    monkeypatch.setattr(memo, "shared_stream",
                        lambda seed, key: calls.append(key) or fresh(seed, key))
    _protocol_diversity.cache_clear()
    for process in ("linear-sde", "vp-sde"):
        calls.clear()
        run_experiment(load_config({"sampler": "svdd", "process": process,
                                    "steps": 10, "nfe": 1000}), 7)
    assert calls == []
    assert 0 < _kept(memo) <= 128


def _reference(seed, domain, *indices):
    """The stream ``(seed, domain, *indices)`` from numpy's own constructors:
    the SeedSequence key of ``(seed, domain)`` at counter ``(0, n,
    *indices)``, unused words 0."""
    key = np.random.SeedSequence(seed, spawn_key=(domain,)).generate_state(2, np.uint64)
    counter = np.array([0, len(indices), *indices, 0, 0][:4], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@pytest.mark.parametrize("seed", [0, 12345, 2**40 + 7, 2**70 + 3])
def test_streams_equal_numpys_own_constructors(memo, seed):
    for key, shape in DRAWS + [((streams.PROPOSAL, 2**63 + 5, 2**64 - 1), (3, 2))]:
        want = _reference(seed, *key).standard_normal(shape)
        assert np.array_equal(streams.stream(seed, *key).standard_normal(shape), want)
        assert np.array_equal(memo.normals(seed, key, shape), want)
    for key, branches, dim in BRANCHES:
        want = [_reference(seed, *key, j).standard_normal(dim) for j in range(branches)]
        assert np.array_equal(memo.branch_normals(seed, key, branches, dim), want)


DOMAINS = [streams.INIT, streams.PROPOSAL, streams.RESAMPLE, streams.FORWARD,
           streams.DIVERSITY, streams.PROCESS]


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 7, 2**130 + 1])
def test_unindexed_streams_are_seed_sequence_seeded(memo, seed):
    for domain in DOMAINS:
        seeded = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(domain,)))
        want = np.random.Generator(seeded).standard_normal((50, 3))
        assert np.array_equal(streams.stream(seed, domain).standard_normal((50, 3)), want)
        assert np.array_equal(memo.normals(seed, (domain,), (50, 3)), want)


_keys = st.tuples(st.integers(0, 2**70), st.sampled_from(DOMAINS),
                  st.lists(st.integers(0, 2**64 - 1), max_size=2).map(tuple))


@settings(max_examples=300, deadline=None)
@given(a=_keys, b=_keys)
def test_distinct_keys_have_distinct_states(a, b):
    state = lambda seed, domain, indices: streams._state(seed, (domain, *indices))
    assert (state(*a) == state(*b)) == (a == b)


def _assert_invalid(memo, seed, key):
    with pytest.raises(ValueError):
        streams.stream(seed, *key)
    with pytest.raises(ValueError):
        memo.normals(seed, key, (2, 2))
    with pytest.raises(ValueError):
        memo.branch_normals(seed, key, 3, 2)
    assert _kept(memo) == 0


@pytest.mark.parametrize("seed, key", [(-1, (1,)), (0, (-1,)), (3, (2, -5)), (-2**70, (1, 2)),
                                       (7, (2**40, 1, -1))])
def test_negative_seed_or_key_raises(memo, seed, key):
    _assert_invalid(memo, seed, key)


@pytest.mark.parametrize("key", [(2, 2**64), (5, 2**64 + 3, 1), (2, 0, 0, 0), (5, 1, 2, 3, 4)])
def test_index_past_64_bits_or_three_indices_raises(memo, key):
    _assert_invalid(memo, 0, key)


@pytest.mark.parametrize("seed", [0, 12345, 2**40 + 7])
def test_interleaved_draws_equal_fresh_streams(seed):
    """Every block resets the one shared generator, so it depends neither on
    the draws before it, nor on whether its (seed, domain) key was cached,
    nor on a generator left partly drawn (a buffered word and a spare
    uint32)."""
    draws = DRAWS + [((*key, j), (dim,)) for key, branches, dim in BRANCHES
                     for j in range(branches)]
    want = [streams.stream(seed, *key).standard_normal(shape) for key, shape in draws]
    streams._philox_key.cache_clear()
    for order in (range(len(draws)), reversed(range(len(draws)))):  # cold, then cached
        for i in order:
            partly = streams.shared_stream(seed, (streams.PROCESS, i))
            partly.random(3)
            partly.integers(2**20, size=3, dtype=np.uint32)
            key, shape = draws[i]
            assert np.array_equal(streams.shared_stream(seed, key).standard_normal(shape), want[i])
