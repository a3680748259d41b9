"""Deterministic, seedable random streams with named children.

Every stochastic operation in the package draws from a :class:`Prng` derived
from the run seed. Child streams are addressed by string labels ("simulate",
"train/seed:3", ...) so that independent pipeline stages consume independent,
reproducible streams regardless of execution order.

The underlying bit generator is Philox, a counter-based algorithm; identical
seeds and labels yield identical draws within a build.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["Prng", "prng_new"]


def _label_words(label: str) -> tuple[int, ...]:
    """Hash a stream label into four 32-bit words for seed derivation."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in (0, 4, 8, 12))


class Prng(np.random.Generator):
    """A deterministic generator tree rooted at an integer seed: a numpy
    `Generator` over Philox, whose draw methods it is.

    Instances are single-owner: never share one across threads. Use
    :meth:`child` to split off an independent stream for a named stage;
    children with the same (seed, path) are always identical, children with
    different labels are statistically independent.
    """

    def __init__(self, seed: int, _path: tuple[str, ...] = ()):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self.path = _path
        entropy = [self.seed]
        for label in _path:
            entropy.extend(_label_words(label))
        super().__init__(np.random.Philox(np.random.SeedSequence(entropy)))

    def child(self, label: str) -> "Prng":
        """Split off an independent stream for the given stage label."""
        return Prng(self.seed, self.path + (label,))

    def __repr__(self) -> str:
        path = "/".join(self.path) or "<root>"
        return f"Prng(seed={self.seed}, path={path!r})"

    __str__ = __repr__  # not Generator's, which names only the bit generator


def prng_new(seed: int) -> Prng:
    """Create the root generator for a run."""
    return Prng(seed)
