"""Zipf text generation."""

import pytest

from repro.simulation import RandomSource
from repro.workloads.text_gen import TextGenerator, zipf_probabilities


def test_probabilities_normalised_and_decreasing():
    probs = zipf_probabilities(100, exponent=1.1)
    assert probs.sum() == pytest.approx(1.0)
    assert all(probs[i] >= probs[i + 1] for i in range(99))


def test_probabilities_validation():
    with pytest.raises(ValueError):
        zipf_probabilities(0)


def test_document_counts_sum_to_token_budget():
    generator = TextGenerator(
        vocabulary_buckets=50, tokens_per_document=500
    )
    document = generator.document(RandomSource(1), "doc")
    assert sum(document.values()) == 500
    assert all(count > 0 for count in document.values())
    assert all(bucket.startswith("w") for bucket in document)


def test_documents_deterministic_per_seed():
    generator = TextGenerator()
    a = generator.document(RandomSource(3), "d")
    b = generator.document(RandomSource(3), "d")
    c = generator.document(RandomSource(4), "d")
    assert a == b
    assert a != c


def test_popular_buckets_dominate():
    generator = TextGenerator(
        vocabulary_buckets=1000, tokens_per_document=10000,
        zipf_exponent=1.2,
    )
    document = generator.document(RandomSource(7), "d")
    head = sum(
        count for bucket, count in document.items()
        if int(bucket[1:]) < 100
    )
    assert head > sum(document.values()) * 0.5


def test_bucket_bytes_scales_with_words_per_bucket():
    small = TextGenerator(words_per_bucket=10)
    big = TextGenerator(words_per_bucket=1000)
    assert big.bucket_bytes == pytest.approx(100 * small.bucket_bytes)


def test_generator_validation():
    with pytest.raises(ValueError):
        TextGenerator(vocabulary_buckets=0)
    with pytest.raises(ValueError):
        TextGenerator(tokens_per_document=0)


def _comprehension_document(generator, randomness, stream):
    """A document built by one Python pass over every bucket, in bucket
    order: what ``TextGenerator.document`` must equal."""
    import numpy as np

    seed = randomness.stream(stream).getrandbits(32)
    counts = np.random.default_rng(seed).multinomial(
        generator.tokens_per_document, generator.probabilities
    )
    return {
        generator.bucket_name(index): int(count)
        for index, count in enumerate(counts)
        if count > 0
    }


@pytest.mark.parametrize("workload", ["wordcount", "naivebayes"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_document_equals_the_per_bucket_comprehension(workload, seed):
    from repro.workloads import workload_by_name

    generator = workload_by_name(workload).generator
    for index in range(4):
        stream = f"doc:{index}"
        got = generator.document(RandomSource(seed), stream)
        expected = _comprehension_document(generator, RandomSource(seed), stream)
        assert list(got.items()) == list(expected.items())
        assert all(type(count) is int for count in got.values())


def test_documents_batch():
    generator = TextGenerator(vocabulary_buckets=20, tokens_per_document=50)
    docs = generator.documents(RandomSource(0), "batch", 5)
    assert len(docs) == 5
    assert len({frozenset(d.items()) for d in docs}) > 1  # not identical
