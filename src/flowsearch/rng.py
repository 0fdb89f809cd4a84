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
go through a memo of recent blocks, bounded by bytes (``_MEMO_BYTES``,
each entry counted as its array's bytes plus ``_ENTRY_BYTES``); a block
over the budget is returned but not kept.  The memo's blocks are shared,
so they are read-only: a consumer that wants to write copies first.
``normals(seed, key, shape)`` is ``stream(seed, *key).standard_normal(shape)``
through the memo, for INIT, PROPOSAL, FORWARD and the protocol's initial
DIVERSITY latent.  ``branch_normals`` stacks the protocol's per-branch
DIVERSITY draws of one interval into one entry.  Consumers that need the
generator itself call ``stream``, which builds one of their own: RESAMPLE
(smc's ``choice``) and PROCESS (``engine.run_process``).

A memo miss builds no stream: the module's one generator is reset to the
stream's key and counter, ~4 us a block before its draw against ~13 us for
``stream`` (2-core Xeon, CPython 3.11, numpy 2.4).  The memo and the shared
generator belong to the process and take no lock, so one thread draws at a
time (the harness runs in parallel with processes, not threads).
"""

from __future__ import annotations

from collections import OrderedDict
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


@lru_cache(maxsize=128)
def _philox_key(seed: int, domain: int) -> tuple[int, int]:
    """The Philox key of every stream of ``(seed, domain)``.  128 entries
    hold the three domains of a 40-seed table's runs."""
    words = np.random.SeedSequence(seed, spawn_key=(domain,)).generate_state(2, np.uint64)
    return int(words[0]), int(words[1])


def _state(seed: int, key: tuple[int, ...]) -> tuple[tuple[int, int], tuple[int, ...]]:
    """The Philox key and counter of the stream ``(seed, *key)``: the one
    definition of a stream.  ``key`` is a domain and at most two indices."""
    if not 1 <= len(key) <= 3 or not all(0 <= int(i) < 2**64 for i in key[1:]):
        raise ValueError(f"expected a domain and at most two indices in [0, 2**64), got {key}")
    indices = [int(i) for i in key[1:]]
    return _philox_key(int(seed), int(key[0])), (0, len(indices), *indices, 0, 0)[:4]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for ``(seed, *key)``, a new one.  Its words
    go in as uint64 arrays: Philox rounds the ints of a tuple past 2**63."""
    philox_key, counter = _state(seed, key)
    return np.random.Generator(np.random.Philox(key=np.array(philox_key, np.uint64),
                                                counter=np.array(counter, np.uint64)))


@cache
def _shared_generator() -> np.random.Generator:
    """The one generator every memo miss draws from, built at the first miss:
    numpy imports ``numpy.random`` lazily, and importing flowsearch should
    not pay for it (~20 ms and ~6 MB)."""
    return np.random.Generator(np.random.Philox(0))


def _fresh_stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """``stream(seed, *key)`` without building it: the shared generator, reset
    to that stream's key and counter with an empty buffer, exactly the state
    ``stream`` builds.  Valid until the next call."""
    philox_key, counter = _state(seed, key)
    generator = _shared_generator()
    generator.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": counter, "key": philox_key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator


# Memo keys: keys that compare equal draw equal blocks, since ``_state``
# reads the seed and key through int().  Sizes are typed, so a size numpy or
# range() would refuse, 2.0 or True, never hits the block of the size it
# equals.  The two functions' keys differ in length, so they never meet.


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
