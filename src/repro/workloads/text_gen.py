"""Synthetic text generation: Zipf-distributed bags of words.

Stands in for HiBench's RandomTextWriter.  A *document* is a bag of
word-bucket counts: the vocabulary is bucketised (one simulated bucket
represents ``words_per_bucket`` real words), sampled with a Zipf law so
bucket popularity is realistically skewed, and drawn with numpy's
multinomial for speed.  numpy is imported when the first generator
works out its probabilities — by a process that generates a text
dataset, not by one that only names a text workload.
"""

from __future__ import annotations

from typing import Dict, List

from repro.simulation.random_source import RandomSource

# Approximate serialized bytes of one real (word, count) entry.
REAL_ENTRY_BYTES = 39.0

# numpy, once a generator has needed it (see the module docstring).
_np = None


def _numpy():
    global _np
    import numpy

    _np = numpy
    return numpy


def zipf_probabilities(vocabulary_size: int, exponent: float = 1.1):
    """Normalised Zipf weights over a finite vocabulary (an array)."""
    if vocabulary_size < 1:
        raise ValueError("vocabulary_size must be >= 1")
    np = _np or _numpy()
    ranks = np.arange(1, vocabulary_size + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


class TextGenerator:
    """Generates documents as word-bucket count dictionaries."""

    def __init__(
        self,
        vocabulary_buckets: int = 2000,
        words_per_bucket: int = 500,
        tokens_per_document: int = 4000,
        zipf_exponent: float = 1.1,
    ) -> None:
        if vocabulary_buckets < 1 or words_per_bucket < 1:
            raise ValueError("vocabulary parameters must be positive")
        if tokens_per_document < 1:
            raise ValueError("tokens_per_document must be positive")
        self.vocabulary_buckets = vocabulary_buckets
        self.words_per_bucket = words_per_bucket
        self.tokens_per_document = tokens_per_document
        self.zipf_exponent = zipf_exponent
        self._probabilities = None
        self._bucket_names: List[str] = []

    @property
    def probabilities(self):
        """Bucket popularities, worked out by the first document."""
        if self._probabilities is None:
            self._probabilities = zipf_probabilities(
                self.vocabulary_buckets, self.zipf_exponent
            )
        return self._probabilities

    @property
    def bucket_bytes(self) -> float:
        """Real bytes represented by one bucket's combined count entry."""
        return self.words_per_bucket * REAL_ENTRY_BYTES

    def bucket_name(self, index: int) -> str:
        return f"w{index:05d}"

    def document(self, randomness: RandomSource, stream: str) -> Dict[str, int]:
        """One document: bucket name -> token count (nonzero buckets only)."""
        np = _np or _numpy()
        seed = randomness.stream(stream).getrandbits(32)
        # repro-lint: allow[DET001] rng is seeded from the named RandomSource stream; fully deterministic per (seed, stream)
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(self.tokens_per_document, self.probabilities)
        if not self._bucket_names:
            self._bucket_names = [
                self.bucket_name(index)
                for index in range(self.vocabulary_buckets)
            ]
        drawn = np.flatnonzero(counts)
        return dict(
            zip(
                map(self._bucket_names.__getitem__, drawn.tolist()),
                counts[drawn].tolist(),
            )
        )

    def documents(
        self, randomness: RandomSource, stream_prefix: str, count: int
    ) -> List[Dict[str, int]]:
        return [
            self.document(randomness, f"{stream_prefix}:{index}")
            for index in range(count)
        ]
