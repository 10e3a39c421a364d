"""The table-driven cone predicate and the slack sampler against the
reference definitions of ``tests/reference_sampling.py``."""

import random

import pytest

import reference_sampling as ref
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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sampler_matches_reference(n, seed):
    want = ref.random_cone_points(n, 5, seed)
    assert _entries(random_cone_points(n, 5, seed)) == _entries(want)


def test_sampler_matches_reference_on_the_battery_draws():
    # check_cone_soundness draws seed 1 at n = 3..6, check_tropical_cone
    # seed 10 + n at n = 3..5
    for n, seed in [(n, 1) for n in (3, 4, 5, 6)] + [(n, 10 + n) for n in (3, 4, 5)]:
        got = random_cone_points(n, 50, seed=seed)
        assert _entries(got) == _entries(ref.random_cone_points(n, 50, seed=seed))
        assert all(type(A) is WeightSystem for A in got)


def test_every_triangle_is_the_slack_point_of_its_slacks():
    # so the construction reaches every integer point of the cone, and
    # only those: the slacks of a point of the cone are all >= 0
    rng = random.Random(9)
    triangles = _triangles() + [
        WeightSystem(7, tuple(rng.randint(-3, 3) for _ in range(21))) for _ in range(50)
    ]
    for A in triangles:
        superdiagonal = [A.a(i, i + 1) for i in range(1, A.n)]
        slacks = [ref.slack_a(A, q) if isinstance(q, int) else ref.slack_b(A, *q)
                  for q in ref.slack_order(A.n)]
        assert ref.slack_point(A.n, superdiagonal, iter(slacks).__next__) == A
        assert check_cone_membership(A) == all(s >= 0 for s in slacks)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_the_face_of_a_sampled_point_is_its_zero_draws(n):
    # the sampler's draws replayed: the superdiagonal, then one slack per
    # inequality in the order of ref.slack_order
    rng = random.Random(n)
    faces = set()
    for A in random_cone_points(n, 40, seed=n):
        superdiagonal = [rng.randint(-3, 3) for _ in range(1, n)]
        slacks = [rng.randint(0, 3) for _ in ref.slack_order(n)]
        assert [A.a(i, i + 1) for i in range(1, n)] == superdiagonal
        sig = ref.face_signature(A)
        zeros = {q for q, s in zip(ref.slack_order(n), slacks) if s == 0}
        assert sig.tight_a | sig.tight_b == zeros
        assert face_signature(A) == sig
        faces.add(frozenset(zeros))
    if 3 <= n <= 5:  # the interior and a proper face both turn up
        assert frozenset() in faces and len(faces) > 1


def test_no_count_draws_nothing_whatever_the_bound():
    for sample in (random_cone_points, ref.random_cone_points, ref.box_triangles):
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
        out += ref.box_triangles(n, 20, bound=1, seed=n)  # mostly on faces
        out += ref.box_triangles(n, 20, bound=3, seed=n)
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
