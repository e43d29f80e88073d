"""Counter-based random streams.

Every random decision in the toolkit draws from a Philox generator keyed by
``(seed, purpose-tagged stream word)``.  Streams are pure functions of their
key — no global state, no consumption order to get wrong — which is what
makes shuffles and augmentations reproducible from ``(seed, epoch, index)``
alone and lets a resumed run replay the exact same data order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# high-byte namespace tags so independent subsystems never share a stream
TAG_INIT = 1 << 56      # weight initialization, word = layer counter
TAG_SHUFFLE = 2 << 56   # epoch shuffles, word = epoch
TAG_AUGMENT = 3 << 56   # per-image augmentation, word = epoch << 28 | index
TAG_DATA = 4 << 56      # synthetic data generation, word = sample index


def keyed_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(rng: np.random.Generator, seed: int, stream: int) -> None:
    """Put the Philox generator ``rng`` in the exact state of a fresh
    ``keyed_rng(seed, stream)`` (the key, a zero counter, an empty buffer),
    which is about twice as fast as building a new generator."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def augment_word(epoch: int, index: int) -> int:
    return TAG_AUGMENT | ((epoch & ((1 << 28) - 1)) << 28) | (index & ((1 << 28) - 1))


def augment_stream(seed: int, epoch: int, index: int) -> np.random.Generator:
    return keyed_rng(seed, augment_word(epoch, index))
