"""The table-driven cone predicate and sampler against the reference
definitions of ``tests/reference_sampling.py``."""

import random
from itertools import product

import pytest

import reference_sampling as ref
from pbwdegen import weights
from pbwdegen.weights import (
    NotInConeError,
    WeightSystem,
    canonical_weight_systems,
    check_cone_membership,
    face_signature,
    is_interior,
    random_cone_points,
    triangle_pairs,
)


def _entries(points):
    return [A.entries for A in points]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sampler_matches_reference(n, seed):
    want = ref.random_cone_points(n, 5, 3, seed)
    assert _entries(random_cone_points(n, 5, seed)) == _entries(want)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sampler_matches_reference_n6(seed):
    want = ref.random_cone_points(6, 1, 3, seed)
    assert _entries(random_cone_points(6, 1, seed)) == _entries(want)


def test_sampler_matches_reference_on_the_battery_draws():
    for n in (3, 4, 5):
        got = random_cone_points(n, 50, seed=10 + n)
        assert _entries(got) == _entries(ref.random_cone_points(n, 50, 3, seed=10 + n))
        assert all(type(A) is WeightSystem for A in got)


@pytest.mark.parametrize("words", [1, 2, 3, 7, 64])
def test_sampler_does_not_depend_on_the_draw_size(words, monkeypatch):
    # with 7 words a draw holds at most 7 entries, so at n=5 (10 entries)
    # every candidate straddles two or more draws; with 64 most counts are
    # reached partway through a draw
    monkeypatch.setattr(weights, "_DRAW_WORDS", words)
    for n, count, seed in [(3, 6, 1), (4, 5, 2), (5, 3, 15), (5, 4, 4)]:
        want = ref.random_cone_points(n, count, 3, seed)
        assert _entries(random_cone_points(n, count, seed)) == _entries(want)


def test_sampler_stops_partway_through_a_draw():
    # one candidate of the first 4,096-word draw, and 250 points over five draws
    assert _entries(random_cone_points(3, 1, seed=5)) == _entries(
        ref.random_cone_points(3, 1, 3, seed=5)
    )
    assert _entries(random_cone_points(4, 250, seed=3)) == _entries(
        ref.random_cone_points(4, 250, 3, seed=3)
    )


def _members(block, n):
    """The candidates of a block that the bit-parallel test keeps, and
    those that check_cone_membership keeps, each tested alone."""
    size = len(triangle_pairs(n))
    count = len(block) // size
    got = list(weights._cone_members(block, count, size, *weights._cone_rows(n)))
    candidates = [tuple(r - 3 for r in block[i * size:(i + 1) * size]) for i in range(count)]
    want = [i for i, e in enumerate(candidates) if check_cone_membership(WeightSystem(n, e))]
    return got, want, count


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 3, 31, 32, 63, 64, 127, 128, 200])
def test_bit_parallel_verdicts_match_the_cone_test(n, seed):
    # every candidate of three draws
    blocks = weights._accepted_draws(random.Random(n + seed))
    kept = total = 0
    for _ in range(3):
        got, want, count = _members(next(blocks), n)
        assert got == want
        kept, total = kept + len(got), total + count
    if n in (3, 4):
        assert 0 < kept < total


@pytest.mark.parametrize("n", [3, 4])
def test_bit_parallel_verdicts_at_the_extreme_draws(n):
    # every candidate with draws 0, 3 and 6 alone, where the slacks reach
    # -12 and 12, the ends of a field
    draws = product((0, 3, 6), repeat=len(triangle_pairs(n)))
    got, want, _ = _members(bytes(r for c in draws for r in c), n)
    assert got == want


def test_no_count_draws_nothing_whatever_the_bound():
    for sample in (random_cone_points, ref.random_cone_points):
        assert sample(3, 0, seed=1) == []
        assert sample(4, -2) == []
        with pytest.raises(ValueError):
            sample(1, 1)


def _triangles():
    """Random triangles in and out of the cone, the n=2 triangles (no
    inequalities), every canonical system and sums of two of them."""
    rng = random.Random(7)
    out = [WeightSystem(2, (v,)) for v in range(-2, 3)]
    for n in range(2, 7):
        canonical = [A for _, A in canonical_weight_systems(n)]
        out += canonical
        for _ in range(40):
            A, B = rng.choice(canonical), rng.choice(canonical)
            out.append(WeightSystem(n, tuple(x + y for x, y in zip(A.entries, B.entries))))
        size = len(triangle_pairs(n))
        out += [WeightSystem(n, tuple(rng.randint(-3, 3) for _ in range(size))) for _ in range(300)]
    for n in (3, 4, 5):
        out += ref.random_cone_points(n, 20, bound=1, seed=n)  # mostly on faces
        out += ref.random_cone_points(n, 20, bound=3, seed=n)
    return out


def test_cone_predicate_matches_reference():
    inside = outside = 0
    for A in _triangles():
        want = ref.face_signature(A)
        assert check_cone_membership(A) == (want is not None)
        if want is None:
            outside += 1
            with pytest.raises(NotInConeError):
                face_signature(A)
            with pytest.raises(NotInConeError):
                is_interior(A)
        else:
            inside += 1
            assert face_signature(A) == want
            assert is_interior(A) == (not want.tight_a and not want.tight_b)
    assert inside > 300 and outside > 300
