"""Deterministic derivation of independent random streams from one master seed.

Every stochastic stage of an experiment (covariates, weights, feature noise,
target draw) pulls from its own generator, keyed
by a label tuple.  Distinct tuples give statistically independent streams and
the same tuple always reproduces the same stream, so results do not depend on
execution order or worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_to_int(label) -> int:
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError("stream labels must be nonnegative integers or strings")
        return int(label)
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"unsupported stream label type: {type(label).__name__}")


def seed_sequence(master_seed: int, *labels) -> np.random.SeedSequence:
    """SeedSequence for the stream identified by (master_seed, *labels)."""
    entropy = [int(master_seed)] + [_label_to_int(x) for x in labels]
    return np.random.SeedSequence(entropy)


def seed_stream(master_seed: int, *labels) -> np.random.Generator:
    """Generator for the stream identified by (master_seed, *labels).

    Calling twice with the same arguments yields generators that produce
    identical output; different label tuples yield independent streams.
    """
    return np.random.default_rng(seed_sequence(master_seed, *labels))
