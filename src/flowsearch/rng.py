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

Domain constants keep unrelated consumers (initial latents, proposal noise,
resampling, ...) from ever sharing a stream.
"""

from __future__ import annotations

from collections import OrderedDict

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
    """Return the Philox generator for ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


# Memo keys: keys that compare equal draw equal blocks, since ``stream``
# reads the seed and key through int().  Sizes are typed (as
# lru_cache(typed=True) keys), so a size numpy or range() would refuse,
# 2.0 or True, never hits the block of the size it equals.  The two
# functions' keys differ in length, so they never meet.


def normals(seed: int, key: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """``stream(seed, *key).standard_normal(shape)`` as a read-only array,
    from the memo while it holds it."""
    return _memo.draw((seed, key, shape, tuple(map(type, shape))),
                      lambda: stream(seed, *key).standard_normal(shape))


def branch_normals(seed: int, key: tuple[int, ...], branches: int, dim: int) -> np.ndarray:
    """One stream per branch: row j is ``stream(seed, *key, j)
    .standard_normal(dim)``, as one read-only ``(branches, dim)`` block,
    from the memo while it holds it."""
    return _memo.draw(
        (seed, key, branches, dim, type(branches), type(dim)),
        lambda: np.stack([stream(seed, *key, j).standard_normal(dim) for j in range(branches)]),
    )
