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

Domain constants keep unrelated consumers (initial latents, proposal noise,
resampling, ...) from ever sharing a stream.
"""

from __future__ import annotations

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


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
