"""Counter-based random streams for reproducible, order-independent sampling.

Every source of randomness in a run is drawn from its own stream, keyed by
``(run_seed, domain, *indices)`` with at most two indices.  A stream is a
Philox key plus a counter (Salmon et al. 2011, "Parallel random numbers: as
easy as 1, 2, 3"), and ``_state`` is their one definition:

* key: ``SeedSequence(seed, spawn_key=(domain,)).generate_state(2,
  np.uint64)``, numpy's own hash of ``(seed, domain)``, for seeds of any
  size.  So a stream without indices is the Philox that SeedSequence seeds;
* counter: ``(0, n, *indices)``, where n is the number of indices and
  unused words are 0, so ``(domain, 0)`` and ``(domain, 0, 0)`` differ.  A
  draw advances only word 0, so two streams never overlap.

The samplers key one stream per ``(seed, domain, step, batch)`` and draw it
as a ``(count, d)`` block: particle j of the batch is row j.  Philox's
``standard_normal`` fills a block row by row, so the first j rows of a
q-row block equal a j-row block (the prefix property): a particle's draw
never depends on how many rows were drawn with it.  A fixed key yields the
same draws on every platform and in every execution order, so parallel and
serial harness runs produce identical results, and streams with distinct
keys are statistically independent.

Keys name neither the process nor the sampler, so every run of one seed
draws the same blocks (common random numbers): a table that runs a sampler
on two processes would draw each of its blocks twice.  So the normal draws
go through a ``functools.lru_cache`` of the 128 most recent blocks of at
most 2 KB each (256 KB in all); a larger block is drawn and returned but
not kept.  The cached blocks are shared, so every block is read-only: a
consumer that wants to write copies first.  ``normals(seed, key, shape)``
is ``stream(seed, *key).standard_normal(shape)`` through the cache, for
INIT, PROPOSAL, FORWARD and the protocol's initial DIVERSITY latent.
``branch_normals`` draws the protocol's per-branch DIVERSITY streams of one
interval straight into the rows of one block.  smc's RESAMPLE ``choice``
draws from the shared generator below, reset by ``shared_stream`` right
before the draw.  Only PROCESS's consumers, the callers of
``engine.run_process``, which takes a generator and keeps it, call
``stream``, which builds one of their own; ``run_process`` draws from it
one interval ahead on one worker thread, in the serial order, so its
velocity callback must not draw from it, and after an exception it is
exactly one block further on than a serial loop would leave it whenever a
later interval is noisy.

A cache miss builds no stream: the module's one generator is reset to the
stream's key and counter, ~3 us a branch of a cold ``(50, 2)`` protocol
block with its draw (``tools/protocol_split.py``), against ~12 us for
``stream`` and the same draw (2-core Xeon, CPython 3.11, numpy 2.4).  The
shared generator belongs to the process and takes no lock, so one thread
draws at a time (the harness runs in parallel with processes, not threads;
``run_process``'s worker thread draws only from its PROCESS generator).
"""

from __future__ import annotations

import math
from functools import cache, lru_cache

import numpy as np

# Stream domains keep unrelated consumers from ever sharing a stream.
# Changing a value, or the key layout a consumer builds from it, changes
# every trajectory drawn from that domain.
INIT = 1        # the run's initial latents x_1 ~ N(0, I), one block
PROPOSAL = 2    # proposal noise z, one block per (step, batch)
RESAMPLE = 3    # SMC multinomial resampling, one stream per step
FORWARD = 4     # SoP forward-noising kernel, one block per round
DIVERSITY = 5   # branched-proposal diversity protocol, one stream per branch
PROCESS = 6     # generic run_process callers

# The largest block the cache keeps, so its 128 blocks hold at most 256 KB.
# A seed-major table reuses a block one sampler run (or one protocol run)
# after drawing it.  At nfe 1000 and 10 steps the larger blocks are rbf's,
# and a 10-seed loop still gets 1,484 of a 256 KB byte budget's 1,508 hits.
_KEPT_BYTES = 2 * 1024


@lru_cache(maxsize=128)
def _philox_key(seed: int, domain: int) -> tuple[int, int]:
    """The Philox key of every stream of ``(seed, domain)``.  128 entries
    hold the three domains of a 40-seed table's runs."""
    words = np.random.SeedSequence(seed, spawn_key=(domain,)).generate_state(2, np.uint64)
    return int(words[0]), int(words[1])


def _state(seed: int, key: tuple[int, ...]) -> tuple[tuple[int, int], tuple[int, ...]]:
    """The Philox key and counter of the stream ``(seed, *key)``: the one
    definition of a stream.  ``key`` is a domain and at most two indices:
    their words' OR (unused words 0) is in [0, 2**64) exactly when both are."""
    words = (*map(int, key[1:]), 0, 0)
    if not 1 <= len(key) <= 3 or (words[0] | words[1]) >> 64:
        raise ValueError(f"expected a domain and at most two indices in [0, 2**64), got {key}")
    return _philox_key(int(seed), int(key[0])), (0, len(key) - 1, *words[:2])


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for ``(seed, *key)``, a new one.  Its words
    go in as uint64 arrays: Philox rounds the ints of a tuple past 2**63."""
    philox_key, counter = _state(seed, key)
    return np.random.Generator(np.random.Philox(key=np.array(philox_key, np.uint64),
                                                counter=np.array(counter, np.uint64)))


@cache
def _shared_generator() -> np.random.Generator:
    """The one generator every cache miss draws from, built at the first miss:
    numpy imports ``numpy.random`` lazily, and importing flowsearch should
    not pay for it (~20 ms and ~6 MB)."""
    return np.random.Generator(np.random.Philox(0))


def shared_stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """``stream(seed, *key)`` without building it: the shared generator, reset
    to that stream's key and counter with an empty buffer, exactly the state
    ``stream`` builds.  Valid until the next call or cache miss."""
    philox_key, counter = _state(seed, key)
    generator = _shared_generator()
    generator.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": counter, "key": philox_key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator


# Cache keys: keys that compare equal draw equal blocks, since ``_state``
# reads the seed and key through int().  Sizes are typed, so a size numpy or
# range() would refuse, 2.0 or True, never hits the block of the size it
# equals.  A ``normals`` key has branches None, so the two never meet.
@lru_cache(maxsize=128)
def _block(seed: int, key: tuple[int, ...], shape: tuple, branches: int | None,
           types: tuple[type, ...]) -> np.ndarray:
    """``stream(seed, *key).standard_normal(shape)``, or with ``branches``
    one such draw per branch ``(*key, j)`` in row j, as a read-only array."""
    if branches is None:
        block = shared_stream(seed, key).standard_normal(shape)
    else:
        block = np.empty((branches, *shape))
        for j in range(branches):
            shared_stream(seed, (*key, j)).standard_normal(out=block[j])
    block.flags.writeable = False
    return block


def _draw(seed: int, key: tuple[int, ...], shape: tuple, branches: int | None) -> np.ndarray:
    """The cached block, or past ``_KEPT_BYTES`` a block drawn and not kept."""
    kept = 8 * math.prod(shape) * (branches or 1) <= _KEPT_BYTES
    draw = _block if kept else _block.__wrapped__
    return draw(seed, key, shape, branches, tuple(map(type, (*shape, branches))))


def normals(seed: int, key: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """``stream(seed, *key).standard_normal(shape)`` as a read-only array,
    from the cache while it holds it."""
    return _draw(seed, key, shape, None)


def branch_normals(seed: int, key: tuple[int, ...], branches: int, dim: int) -> np.ndarray:
    """One stream per branch: row j is ``stream(seed, *key, j)
    .standard_normal(dim)``, as one read-only ``(branches, dim)`` block,
    from the cache while it holds it."""
    return _draw(seed, key, (dim,), branches)
