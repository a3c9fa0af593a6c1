import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psskit import (
    QVec,
    VecSet,
    characteristic_basis,
    dependency_basis,
    gale_diagram,
    is_locally_equilibrated,
    is_pss,
    nonneg_dependency_basis,
    positively_dependent,
    verify_gale_theorem,
)
from psskit.errors import PreconditionError
from psskit.gale import Dependency, simplex_dependency
from psskit.genlib import example_x9, make_cross, make_simplex, random_positive_basis
from psskit.ratlin import rank, solve_nonneg
from psskit.simplicial import enumerate_simplices
from psskit.suite import _check_gale_basis

from conftest import oracle_rref_rank

F = Fraction


def s_union_minus_s():
    return VecSet(2, [[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1], [1, 1]])


def check_is_dependency(X, v):
    acc = QVec.zero(X.dim)
    for i in X.indices():
        acc = acc + X[i].scale(v[i])
    assert acc.is_zero()


class TestDependencyBasis:
    def test_independent_set_empty(self):
        assert dependency_basis(VecSet(3, [[1, 0, 0], [0, 1, 0]])) == []

    def test_simplex_single_positive(self):
        basis = dependency_basis(make_simplex(2))
        assert len(basis) == 1
        assert basis[0].is_nonnegative()
        check_is_dependency(make_simplex(2), basis[0])

    def test_x9_has_four(self):
        X = example_x9()
        basis = dependency_basis(X)
        assert len(basis) == 4
        for v in basis:
            check_is_dependency(X, v)


class TestNonnegBasis:
    def test_simplex(self):
        X = make_simplex(3)
        basis = nonneg_dependency_basis(X)
        assert len(basis) == 1 and basis[0].is_nonnegative()

    def test_cross_supported_on_pairs(self):
        basis = nonneg_dependency_basis(make_cross(2))
        assert sorted(v.support() for v in basis) == [(0, 1), (2, 3)]

    def test_doubled_simplex(self):
        X = s_union_minus_s()
        basis = nonneg_dependency_basis(X)
        assert len(basis) == len(X) - X.rank() == 4
        for v in basis:
            assert v.is_nonnegative()
            check_is_dependency(X, v)
        assert rank([v.coeffs for v in basis]) == 4

    def test_rejects_non_pss(self):
        with pytest.raises(PreconditionError):
            nonneg_dependency_basis(VecSet(2, [[1, 0], [0, 1]]))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 50))
    def test_contract_on_generated_bases(self, d, seed):
        X = random_positive_basis(d, seed % d + 1, seed)
        basis = nonneg_dependency_basis(X)
        assert len(basis) == len(X) - X.rank()
        for v in basis:
            assert v.is_nonnegative()
            check_is_dependency(X, v)
        if basis:
            assert rank([v.coeffs for v in basis]) == len(basis)


def _gale_pool():
    """30 seeded positively spanning sets: 15 positive bases, d = 2..5, and
    each with one or two extra integer combinations of its vectors."""
    rng = random.Random(12)
    pool = []
    for seed in range(15):
        d = 2 + seed % 4
        B = random_positive_basis(d, 1 + seed % d, seed)
        vectors = list(B.vectors)
        while len(vectors) < len(B) + 1 + seed % 2:
            v = sum((x.scale(rng.randint(-2, 2)) for x in B), QVec.zero(d))
            if not v.is_zero() and v not in vectors:
                vectors.append(v)
        rng.shuffle(vectors)
        pool += [B, VecSet(d, vectors)]
    return pool


def _first_independent_run(X, rows):
    """The rows, in order, that raise the rank of those kept before them."""
    kept = []
    for row in rows:
        if len(kept) == len(X) - X.rank():
            break
        if oracle_rref_rank(kept + [row]) == len(kept) + 1:
            kept.append(row)
    return kept


class TestNonnegBasisFromSimplices:
    POOL = _gale_pool()

    @pytest.mark.parametrize("X", POOL, ids=lambda X: f"d{X.dim}n{len(X)}")
    def test_first_independent_simplex_dependencies(self, X):
        simplices = enumerate_simplices(X)
        deps = [simplex_dependency(X, s) for s in simplices]
        basis = nonneg_dependency_basis(X)
        assert all(v in deps for v in basis)
        run = _first_independent_run(X, [list(v.coeffs) for v in deps])
        assert [list(v.coeffs) for v in basis] == run
        assert _check_gale_basis(X) == (True, f"nonnegative dependency basis of size {len(basis)}")

    def test_pool_is_spanning_and_has_dependent_sets(self):
        assert len(self.POOL) == 30
        assert all(is_pss(X) for X in self.POOL)
        assert sum(positively_dependent(X).verdict for X in self.POOL) == 15

    def test_characteristic_basis_is_the_first_independent_indicators(self):
        doubled = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
        doubled += [[-a for a in v] for v in doubled]
        candidates = self.POOL + [
            make_cross(3),
            make_simplex(4),
            example_x9(),
            s_union_minus_s(),
            VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]),
            VecSet(3, doubled),
        ]
        equilibrated = [X for X in candidates if is_locally_equilibrated(X)]
        assert len(equilibrated) >= 6
        for X in equilibrated:
            indicators = [
                [F(int(i in s)) for i in X.indices()] for s in enumerate_simplices(X)
            ]
            want = _first_independent_run(X, indicators)
            assert [list(v.coeffs) for v in characteristic_basis(X)] == want


class TestLocallyEquilibrated:
    def test_unit_simplex(self):
        assert is_locally_equilibrated(make_simplex(2))

    def test_lopsided_simplex(self):
        assert not is_locally_equilibrated(make_simplex(2, [2, 1]))

    def test_unit_cross(self):
        assert is_locally_equilibrated(make_cross(3))

    def test_x9(self):
        assert is_locally_equilibrated(example_x9())


class TestGaleDiagram:
    def test_simplex_all_points_equal(self):
        X = make_simplex(2)
        diag = gale_diagram(X, dependency_basis(X))
        assert diag.points == (QVec([1]), QVec([1]), QVec([1]))

    def test_cross_points_paired(self):
        X = make_cross(2)
        diag = gale_diagram(X, nonneg_dependency_basis(X))
        assert diag.points == (
            QVec([1, 0]),
            QVec([1, 0]),
            QVec([0, 1]),
            QVec([0, 1]),
        )

    def test_x9_shared_point(self):
        X = example_x9()
        diag = gale_diagram(X, characteristic_basis(X))
        assert diag.points[0] == diag.points[1]  # x1, x2 in the same simplices
        assert diag.points[0] != diag.points[2]

    def test_rejects_non_basis(self):
        X = make_cross(2)
        bogus = [Dependency((F(1), F(1), F(0), F(0)))]
        with pytest.raises(PreconditionError):
            gale_diagram(X, bogus)  # wrong count for the dependency space

    def test_l1_normalisation(self):
        X = s_union_minus_s()
        diag = gale_diagram(X, nonneg_dependency_basis(X))
        for p in diag.points:
            total = sum((abs(c) for c in p), F(0))
            assert total in (F(0), F(1))


class TestGaleTheorem:
    def test_single_simplex(self):
        rep = verify_gale_theorem(make_simplex(3))
        assert rep.ok and len(rep.point_classes) == 1

    def test_unit_cross(self):
        rep = verify_gale_theorem(make_cross(2))
        assert rep.ok
        assert rep.point_classes == ((0, 1), (2, 3))

    def test_rescaled_cross_rejected(self):
        with pytest.raises(PreconditionError):
            verify_gale_theorem(make_cross(2, [2, 1]))

    def test_x9(self):
        rep = verify_gale_theorem(example_x9())
        assert rep.ok

    def test_basis_change_preserves_point_classes(self):
        # the induced partition of the set is basis independent
        for X in (make_cross(2), example_x9(), s_union_minus_s()):
            if not is_locally_equilibrated(X):
                continue
            partitions = []
            for basis in (characteristic_basis(X), nonneg_dependency_basis(X),
                          dependency_basis(X)):
                diag = gale_diagram(X, basis)
                classes = {}
                for i in X.indices():
                    classes.setdefault(diag.points[i], []).append(i)
                partitions.append(sorted(tuple(v) for v in classes.values()))
            assert partitions[0] == partitions[1] == partitions[2]

    def test_characteristic_functions_span_nonneg_cone(self):
        # every nonnegative basis element is a nonnegative combination of
        # simplex indicator functions when the set is locally equilibrated
        for X in (make_cross(2), example_x9()):
            chi = [
                [F(1) if i in s.dependency else F(0) for i in X.indices()]
                for s in enumerate_simplices(X)
            ]
            for v in nonneg_dependency_basis(X):
                res = solve_nonneg(chi, v.coeffs)
                assert res.kind == "coefficients"
