from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psskit import (
    QVec,
    basis_decomposition,
    enumerate_mns,
    enumerate_simplices,
    is_positive_basis,
    is_pss,
    is_simplex,
)
from psskit.errors import PreconditionError
from psskit.genlib import (
    AntichainSpec,
    example_x9,
    make_cross,
    make_from_antichain,
    make_simplex,
    polygon_example,
    random_positive_basis,
)

F = Fraction


class TestMakeCross:
    def test_line(self):
        X = make_cross(1)
        assert X.vectors == (QVec([1]), QVec([-1]))

    def test_plane_counts(self):
        X = make_cross(2)
        assert len(X) == 4
        assert len(enumerate_mns(X)) == 4

    def test_scales_preserve_structure(self):
        X = make_cross(3, [1, 2, 3])
        assert is_positive_basis(X)
        assert len(enumerate_mns(X)) == 8

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(PreconditionError):
            make_cross(2, [1, 0])

    def test_float_scale_rejected(self):
        with pytest.raises(TypeError):
            make_cross(2, [0.5, 1])

    def test_string_scales_are_exact(self):
        assert make_cross(2, ["1/2", "2"]) == make_cross(2, [Fraction(1, 2), 2])


class TestMakeSimplex:
    def test_default_plane(self):
        X = make_simplex(2)
        assert X.vectors == (QVec([1, 0]), QVec([0, 1]), QVec([-1, -1]))

    def test_lopsided(self):
        X = make_simplex(2, [2, 1])
        assert X.vectors[-1] == QVec([-2, -1])
        s = is_simplex(X)
        assert s is not None
        assert s.dependency == {0: F(1), 1: F(1, 2), 2: F(1, 2)}

    def test_line(self):
        assert is_simplex(make_simplex(1)) is not None

    def test_nonpositive_coeff_rejected(self):
        with pytest.raises(PreconditionError):
            make_simplex(2, [1, -1])

    def test_float_coeff_rejected(self):
        with pytest.raises(TypeError):
            make_simplex(2, [1, 0.5])


class TestAntichain:
    def test_singletons_give_cross(self):
        X = make_from_antichain(AntichainSpec(2, [{1}, {2}]))
        assert set(X.vectors) == set(make_cross(2).vectors)

    def test_full_support_gives_simplex(self):
        X = make_from_antichain(AntichainSpec(2, [{1, 2}]))
        assert set(X.vectors) == set(make_simplex(2).vectors)

    def test_overlapping_supports(self):
        X = make_from_antichain(AntichainSpec(3, [{1, 2}, {2, 3}]))
        assert len(X) == 5
        assert is_positive_basis(X)
        assert len(enumerate_simplices(X)) == 2

    def test_covered_support_rejected(self):
        # {1,2} is inside {1,3} | {2,4}: the off-basis vector would be a
        # nonnegative combination of the rest
        with pytest.raises(PreconditionError):
            AntichainSpec(4, [{1, 2}, {1, 3}, {2, 4}])

    def test_non_covering_rejected(self):
        with pytest.raises(PreconditionError):
            AntichainSpec(3, [{1, 2}])

    def test_float_weight_rejected(self):
        with pytest.raises(TypeError):
            AntichainSpec(2, [{1, 2}], {(0, 1): 0.5})

    def test_string_weights_are_exact(self):
        spec = AntichainSpec(2, [{1, 2}], {(0, 1): "1/2"})
        assert make_from_antichain(spec).vectors[-1] == QVec([F(-1, 2), -1])

    def test_round_trip_recovers_supports(self):
        subsets = [{1, 2}, {2, 3}, {4}]
        X = make_from_antichain(AntichainSpec(4, subsets))
        dec = basis_decomposition(X)
        assert dec.basis == (0, 1, 2, 3)  # the standard basis comes first
        recovered = sorted(
            sorted(i + 1 for i in a) for _, a in dec.pairs
        )
        assert recovered == sorted(sorted(s) for s in subsets)


class TestExampleX9:
    def test_shape(self):
        X = example_x9()
        assert X.dim == 6 and len(X) == 9

    def test_stated_dependence(self):
        X = example_x9()
        assert X[0] + X[1] + X[7] + X[8] == X[5]

    def test_rank(self):
        # the four simplex dependencies are independent, so the rank is 5
        assert example_x9().rank() == 5


class TestPolygon:
    def test_single_pair(self):
        X = polygon_example(1)
        assert len(X) == 2
        assert X[1] == -X[0]

    def test_two_pairs_is_cross(self):
        from psskit.conical import is_cross

        assert is_cross(polygon_example(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_frame_signature(self, n):
        X = polygon_example(n)
        frames = enumerate_mns(X)
        assert len(frames) == 2 * n
        assert all(len(f.members) == n for f in frames)
        assert is_pss(X)

    def test_exact_antipodality(self):
        X = polygon_example(5)
        for k in range(5):
            assert X[5 + k] == -X[k]


class TestRandomBasis:
    def test_forced_simplex(self):
        X = random_positive_basis(2, 1, 3)
        assert len(enumerate_simplices(X)) == 1

    def test_forced_cross(self):
        X = random_positive_basis(3, 3, 11)
        assert len(X) == 6
        from psskit.conical import is_cross

        assert is_cross(X)

    def test_cardinality(self):
        X = random_positive_basis(4, 2, 5)
        assert len(X) == 6  # d + n

    def test_seed_determinism(self):
        a = random_positive_basis(4, 3, 123)
        b = random_positive_basis(4, 3, 123)
        assert a == b
        c = random_positive_basis(4, 3, 124)
        assert a != c

    def test_invalid_count(self):
        with pytest.raises(PreconditionError):
            random_positive_basis(2, 3, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000))
    def test_always_positive_basis(self, d, seed):
        n = seed % d + 1
        X = random_positive_basis(d, n, seed)
        assert is_positive_basis(X)
        assert X.rank() == d
        assert len(enumerate_simplices(X)) == n
