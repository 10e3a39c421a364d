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
@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4])
def test_sampler_matches_reference(n, bound):
    for seed in (0, 1, 2):
        assert _entries(random_cone_points(n, 5, bound, seed)) == _entries(
            ref.random_cone_points(n, 5, bound, seed)
        )


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4])
def test_sampler_matches_reference_n6(bound):
    want = ref.random_cone_points(6, 1, bound, seed=0)
    assert _entries(random_cone_points(6, 1, bound, seed=0)) == _entries(want)


def test_sampler_matches_reference_on_the_battery_draws():
    for n in (3, 4, 5):
        got = random_cone_points(n, 50, bound=3, seed=10 + n)
        assert _entries(got) == _entries(ref.random_cone_points(n, 50, bound=3, seed=10 + n))
        assert all(type(A) is WeightSystem for A in got)


def test_negative_bound_raises_like_randint():
    for sample in (random_cone_points, ref.random_cone_points):
        with pytest.raises(ValueError):
            sample(3, 1, bound=-1)
        assert sample(3, 0, bound=-1) == []  # nothing drawn, nothing refused


@pytest.mark.parametrize("words", [1, 2, 3, 7, 64])
def test_sampler_does_not_depend_on_the_draw_size(words, monkeypatch):
    # with 7 words a draw holds at most 7 entries, so at n=5 (10 entries)
    # every candidate straddles two or more draws; with 64 most counts are
    # reached partway through a draw
    monkeypatch.setattr(weights, "_DRAW_WORDS", words)
    for n, count, bound, seed in [(3, 6, 3, 1), (4, 5, 2, 2), (5, 3, 3, 15), (5, 4, 1, 4)]:
        want = ref.random_cone_points(n, count, bound, seed)
        assert _entries(random_cone_points(n, count, bound, seed)) == _entries(want)


def test_sampler_stops_partway_through_a_draw():
    # one candidate of the first 4,096-word draw, and 450 points over six draws
    assert _entries(random_cone_points(3, 1, 3, seed=5)) == _entries(
        ref.random_cone_points(3, 1, 3, seed=5)
    )
    assert _entries(random_cone_points(4, 450, 1, seed=3)) == _entries(
        ref.random_cone_points(4, 450, 1, seed=3)
    )


def test_sampler_with_bound_zero_takes_the_zero_triangle():
    want = ref.random_cone_points(5, 3, bound=0, seed=9)
    assert _entries(random_cone_points(5, 3, bound=0, seed=9)) == _entries(want)
    assert _entries(want) == [(0,) * 10] * 3


@pytest.mark.parametrize("words", [5, weights._DRAW_WORDS])
def test_sampler_with_draws_wider_than_a_byte(words, monkeypatch):
    # 2 * 200 + 1 values need 9 bits: the draws come one at a time
    monkeypatch.setattr(weights, "_DRAW_WORDS", words)
    for seed in (0, 1):
        want = ref.random_cone_points(3, 5, bound=200, seed=seed)
        assert _entries(random_cone_points(3, 5, bound=200, seed=seed)) == _entries(want)
    want = ref.random_cone_points(3, 4, bound=127, seed=2)  # 255 values: 8 bits
    assert _entries(random_cone_points(3, 4, bound=127, seed=2)) == _entries(want)


# bounds around the field widths of the bit-parallel test: one-byte fields
# up to 31, two-byte fields from 32; draws of 7 bits up to 63, of 8 bits
# up to 127, and wider from 128
EDGE_BOUNDS = [0, 1, 3, 31, 32, 63, 64, 127, 128, 200]


@pytest.mark.parametrize("words", [1, 2, 7, 64])
@pytest.mark.parametrize("bound", EDGE_BOUNDS)
def test_sampler_matches_reference_at_the_field_width_edges(bound, words, monkeypatch):
    # with 1, 2 or 7 words every candidate straddles draws
    monkeypatch.setattr(weights, "_DRAW_WORDS", words)
    for n, count, seed in [(3, 5, bound), (4, 3, bound + 1)]:
        want = ref.random_cone_points(n, count, bound, seed)
        assert _entries(random_cone_points(n, count, bound, seed)) == _entries(want)


def _members(block, n, bound):
    """The candidates of a block that the bit-parallel test keeps, and
    those that _in_cone keeps, each tested alone on its entries."""
    size = len(triangle_pairs(n))
    rows = weights._cone_rows(n)
    depth = ((2 * bound + 1).bit_length() + 7) // 8
    count = len(block) // (size * depth)
    got = list(weights._cone_members(block, count, size, depth, bound, *rows))
    e = [int.from_bytes(block[x:x + depth], "little") - bound for x in range(0, len(block), depth)]
    want = [i for i in range(count) if weights._in_cone(e[i * size:(i + 1) * size], *rows)]
    return got, want, count


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("bound", EDGE_BOUNDS)
def test_bit_parallel_verdicts_match_the_cone_test(n, bound):
    # every candidate of three draws
    blocks = weights._accepted_draws(random.Random(n + bound), 2 * bound)
    kept = total = 0
    for _ in range(3):
        got, want, count = _members(next(blocks), n, bound)
        assert got == want
        kept, total = kept + len(got), total + count
    if n in (3, 4) and bound:
        assert 0 < kept < total


@pytest.mark.parametrize("bound", EDGE_BOUNDS)
def test_bit_parallel_verdicts_at_the_extreme_draws(bound):
    # every candidate with draws 0, bound and 2 * bound alone, where the
    # slacks reach -4 * bound and 4 * bound, the ends of a field
    depth = ((2 * bound + 1).bit_length() + 7) // 8
    for n in (3, 4):
        draws = product((0, bound, 2 * bound), repeat=len(triangle_pairs(n)))
        block = b"".join(r.to_bytes(depth, "little") for c in draws for r in c)
        got, want, _ = _members(block, n, bound)
        assert got == want


def test_no_count_draws_nothing_whatever_the_bound():
    for sample in (random_cone_points, ref.random_cone_points):
        assert sample(3, 0, bound=-4, seed=1) == []
        assert sample(4, -2, bound=-1) == []
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
