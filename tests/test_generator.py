"""The generator's stream: the inlined draws are the interpreter's own, and
the matrices are those of the generator before the draws were inlined.

``test_cli`` pins sha256 digests of the output up to n=300; the tests and
``perfbench/`` also generate at n = 24 (the benchmark's warm-up), 192
(``cli-refuse``), 384 (the CLI workloads) and 768 (``lib-trees``), which
the comparison with ``reference.generate_matrix_reference`` covers, row
object sharing included.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from reference import generate_matrix_reference
from robinspace import generator


def _same_matrix(n: int, seed: int, profile: str) -> None:
    new = generator.generate_matrix(n, seed, profile).rows
    old = generate_matrix_reference(n, seed, profile).rows
    assert list(new) == list(old)
    # the copies of one base point stay one row object
    assert len({id(r) for r in new}) == len({id(r) for r in old})


@pytest.mark.parametrize("n", [24, 192, 384, 768])
@pytest.mark.parametrize("profile", generator.PROFILES)
def test_generator_matches_the_reference_at_the_benchmark_sizes(profile, n):
    for seed in (0, 1, 7):
        _same_matrix(n, seed, profile)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(generator.PROFILES), st.integers(1, 64), st.integers(0, 10**6))
def test_generator_matches_the_reference(profile, n, seed):
    _same_matrix(n, seed, profile)


# A Python whose ``random`` draws differently fails here by name, before
# the digests and the comparison above fail without saying why.


@pytest.mark.parametrize("k", [1, 2, 3, 4, 300, 2048])
def test_inlined_randbelow_is_the_interpreters_draw(k):
    ours, theirs = random.Random(f"below:{k}"), random.Random(f"below:{k}")
    for _ in range(200):
        assert generator._below(k, ours.getrandbits) == theirs._randbelow(k)
    assert ours.getstate() == theirs.getstate()


def test_inlined_shuffle_is_the_interpreters_shuffle():
    ours, theirs = random.Random("shuffle"), random.Random("shuffle")
    for length in range(51):
        x, y = list(range(length)), list(range(length))
        generator._shuffle(x, ours.getrandbits)
        theirs.shuffle(y)
        assert x == y
        assert ours.getstate() == theirs.getstate()


def test_ranged_draws_are_randbelow_draws():
    # the generator stands ``randint(a, b)`` for ``a + _randbelow(b - a + 1)``
    # and ``randrange(m)`` for ``_randbelow(m)``
    ours, theirs = random.Random("ranged"), random.Random("ranged")
    for a, b in [(1, 3), (1, 4), (2, 2), (2, 3), (2, 4)]:
        for _ in range(50):
            assert a + generator._below(b - a + 1, ours.getrandbits) == theirs.randint(a, b)
    for m in (1, 5, 300):
        for _ in range(50):
            assert generator._below(m, ours.getrandbits) == theirs.randrange(m)
    assert ours.getstate() == theirs.getstate()
