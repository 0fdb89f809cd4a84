"""Counter-based random streams for reproducible, order-independent sampling.

Every source of randomness in a run is drawn from its own stream, keyed by
``(run_seed, domain, *indices)``.  Streams are backed by numpy's Philox
bit generator (a counter-based generator, Salmon et al. 2011), seeded
through ``SeedSequence`` with the key as the spawn path.

The samplers key one stream per ``(seed, domain, step, batch)`` and draw it
as a ``(count, d)`` block: particle j of the batch is row j.  Philox's
``standard_normal`` fills a block row by row, so the first j rows of a
q-row block equal a j-row block (the prefix property): a particle's draw
never depends on how many rows were drawn with it.  Consequences:

* a fixed key yields the same draws on every platform and in every
  execution order, so parallel and serial harness runs produce identical
  results;
* streams with distinct keys are statistically independent, so batches and
  steps can be sampled in any order or in parallel.

Keys name neither the process nor the sampler, so every run of one seed
draws the same blocks (common random numbers): a table that runs a sampler
on two processes would draw each of its blocks twice.  So the normal draws
go through a memo of recent blocks, bounded by bytes (``_MEMO_BYTES``,
each entry counted as its array's bytes plus ``_ENTRY_BYTES``); a block
over the budget is returned but not kept.  The memo's blocks are shared,
so they are read-only: a consumer that wants to write copies first.
``normals(seed, key, shape)`` is ``stream(seed, *key).standard_normal(shape)``
through the memo, for INIT, PROPOSAL, FORWARD and the protocol's initial
DIVERSITY latent.  ``branch_normals`` stacks the protocol's per-branch
DIVERSITY draws of one interval into one entry, so a table whose seeds
never come back pays one memo entry per 50 streams, not one per stream.
Consumers that need the generator itself call ``stream``: RESAMPLE (smc's
``choice``) and PROCESS (``engine.run_process``).

A memo miss builds no stream.  ``stream`` keys Philox with
``SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)`` at
counter 0, and building that SeedSequence is most of the ~17 us a stream
costs.  ``_philox_key`` computes the same key in plain ints, from a cached
pool of the seed and every key element but the last (one interval's 50
branches, or one step's batches, share it), and the module's one generator
is reset to it: ~6 us a block before its draw, on a 2-core Xeon with
CPython 3.11 and numpy 2.4.  The memo and the shared generator belong to
the process and take no lock, so one thread draws at a time (the harness
runs in parallel with processes, not threads).

Domain constants keep unrelated consumers (initial latents, proposal noise,
resampling, ...) from ever sharing a stream.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cache, lru_cache

import numpy as np

# Stream domains.  Changing a value, or the key layout a consumer builds
# from it, changes every trajectory drawn from that domain.  The samplers
# were re-keyed once, from one stream per particle to one block per
# (step, batch); the diversity protocol still keys one stream per branch.
INIT = 1        # the run's initial latents x_1 ~ N(0, I), one block
PROPOSAL = 2    # proposal noise z, one block per (step, batch)
RESAMPLE = 3    # SMC multinomial resampling, one stream per step
FORWARD = 4     # SoP forward-noising kernel, one block per round
DIVERSITY = 5   # branched-proposal diversity protocol, one stream per branch
PROCESS = 6     # generic run_process callers

# The memo's budget, and what an entry costs beyond its array's data: the
# key's tuples and ints, the array object and the dict's slot (390-450
# bytes under tracemalloc on CPython 3.11 with numpy 2.4).  A seed-major
# table reuses a block one sampler run (or one protocol run) after drawing
# it, about 30 KB of entries at nfe 1000 and 10 steps; the budget holds
# eight times that.
_MEMO_BYTES = 256 * 1024
_ENTRY_BYTES = 448


class _Memo(OrderedDict):
    """Read-only blocks by key, least recently used first, and their
    footprint in bytes.  The module binds one for good and only mutates it."""

    nbytes = 0

    def draw(self, key: tuple, make) -> np.ndarray:
        """The block kept under ``key``, else ``make()`` made read-only and
        kept while it fits, evicting the least recently used blocks."""
        block = self.get(key)
        if block is not None:
            self.move_to_end(key)
            return block
        block = make()
        block.flags.writeable = False
        cost = block.nbytes + _ENTRY_BYTES
        if cost <= _MEMO_BYTES:
            self[key] = block
            self.nbytes += cost
            while self.nbytes > _MEMO_BYTES:
                self.nbytes -= self.popitem(last=False)[1].nbytes + _ENTRY_BYTES
        return block


_memo = _Memo()


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for ``(seed, *key)``: the definition
    that ``_fresh_stream`` reproduces without building it."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


# SeedSequence's constants (numpy/random/bit_generator.pyx): the entropy
# hash (A), the pool mix (L, R) and the output hash (B).  A numpy that
# changed them would change every seeded stream; tests/test_rng.py pins the
# derivation below against SeedSequence itself, so it would fail there.
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """``n``'s little-endian uint32 words, as SeedSequence reads an int."""
    n = int(n)
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK]
    while n := n >> 32:
        words.append(n & _MASK)
    return words


def _hash(value: int, const: int, mult: int) -> tuple[int, int]:
    """SeedSequence's word hash: ``value`` hashed, and the next constant."""
    value ^= const
    const = const * mult & _MASK
    value = value * const & _MASK
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    """SeedSequence's pool mix of a pool word ``x`` and a hashed word ``y``."""
    m = _MIX_L * x - _MIX_R * y & _MASK
    return m ^ m >> 16


def _absorb(pool: tuple[int, ...], const: int, words: list[int]) -> tuple[tuple[int, ...], int]:
    """Mix each word into every pool word, as SeedSequence does with the
    entropy words past its pool."""
    pool = list(pool)
    for word in words:
        for i in range(4):
            h, const = _hash(word, const, _MULT_A)
            pool[i] = _mix(pool[i], h)
    return tuple(pool), const


@lru_cache(maxsize=64)
def _pool(seed: int, head: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool and entropy-hash constant after the seed and the
    key elements ``head``.  A key pads the seed with zero words to the
    pool's four; without one numpy hashes zeros into the pool instead, which
    is the same."""
    if head:
        return _absorb(*_pool(seed, head[:-1]), _words(head[-1]))
    words = _words(seed)
    words += [0] * (4 - len(words))
    pool, const = [], _INIT_A
    for word in words[:4]:
        h, const = _hash(word, const, _MULT_A)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    return _absorb(pool, const, words[4:])


def _philox_key(seed: int, key: tuple[int, ...]) -> tuple[int, int]:
    """``SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)`` as
    ints: the Philox key of ``stream(seed, *key)``."""
    pool, const = _pool(seed, key[:-1])
    if key:
        pool, const = _absorb(pool, const, _words(key[-1]))
    out, const = [], _INIT_B
    for word in pool:
        h, const = _hash(word, const, _MULT_B)
        out.append(h)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


@cache
def _shared_generator() -> np.random.Generator:
    """The one generator every memo miss draws from, built at the first miss:
    numpy imports ``numpy.random`` lazily, and importing flowsearch should
    not pay for it (~20 ms and ~6 MB)."""
    return np.random.Generator(np.random.Philox(0))


def _fresh_stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """``stream(seed, *key)`` without building a SeedSequence: the shared
    generator, reset to that stream's first state.  A stream is its key and
    a counter (Salmon et al. 2011), so key, counter 0 and an empty buffer
    are exactly the state ``stream`` builds.  Valid until the next call."""
    generator = _shared_generator()
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": _philox_key(seed, key)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator


# Memo keys: keys that compare equal draw equal blocks, since ``stream``
# and ``_philox_key`` read the seed and key through int().  Sizes are typed (as
# lru_cache(typed=True) keys), so a size numpy or range() would refuse,
# 2.0 or True, never hits the block of the size it equals.  The two
# functions' keys differ in length, so they never meet.


def normals(seed: int, key: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """``stream(seed, *key).standard_normal(shape)`` as a read-only array,
    from the memo while it holds it."""
    return _memo.draw((seed, key, shape, tuple(map(type, shape))),
                      lambda: _fresh_stream(seed, key).standard_normal(shape))


def branch_normals(seed: int, key: tuple[int, ...], branches: int, dim: int) -> np.ndarray:
    """One stream per branch: row j is ``stream(seed, *key, j)
    .standard_normal(dim)``, as one read-only ``(branches, dim)`` block,
    from the memo while it holds it."""
    return _memo.draw(
        (seed, key, branches, dim, type(branches), type(dim)),
        lambda: np.stack([_fresh_stream(seed, (*key, j)).standard_normal(dim)
                          for j in range(branches)]),
    )
