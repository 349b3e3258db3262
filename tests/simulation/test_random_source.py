"""Seeded random streams: determinism and independence."""

from hypothesis import given, strategies as st

from repro.simulation import RandomSource


def test_same_seed_same_draws():
    a = RandomSource(7)
    b = RandomSource(7)
    assert [a.uniform("s", 0, 1) for _ in range(10)] == [
        b.uniform("s", 0, 1) for _ in range(10)
    ]


def test_different_seeds_differ():
    a = RandomSource(1)
    b = RandomSource(2)
    assert [a.uniform("s", 0, 1) for _ in range(5)] != [
        b.uniform("s", 0, 1) for _ in range(5)
    ]


def test_streams_are_independent():
    """Draws on one stream must not perturb another stream."""
    a = RandomSource(3)
    b = RandomSource(3)
    # Interleave extra draws on an unrelated stream in `a` only.
    a_values = []
    for _ in range(5):
        a.uniform("noise", 0, 1)
        a_values.append(a.uniform("target", 0, 1))
    b_values = [b.uniform("target", 0, 1) for _ in range(5)]
    assert a_values == b_values


def test_child_sources_are_independent_of_parent():
    parent = RandomSource(9)
    child = parent.child("x")
    reference = RandomSource(9).child("x")
    parent.uniform("anything", 0, 1)
    assert child.uniform("s", 0, 1) == reference.uniform("s", 0, 1)


def test_chance_extremes():
    source = RandomSource(0)
    assert all(source.chance("always", 1.0) for _ in range(20))
    assert not any(source.chance("never", 0.0) for _ in range(20))


def test_chance_clamps_out_of_range():
    source = RandomSource(0)
    assert source.chance("big", 2.0)
    assert not source.chance("small", -1.0)


def test_choice_draws_one_of_the_options():
    source = RandomSource(5)
    items = list(range(30))
    assert source.choice("c", items) in items
    assert items == list(range(30))  # input untouched


@given(st.integers(), st.text(max_size=20))
def test_gauss_deterministic(seed, name):
    a = RandomSource(seed)
    b = RandomSource(seed)
    assert a.gauss(name, 0, 1) == b.gauss(name, 0, 1)
