"""Dependency spaces, nonnegative dependency bases and Gale diagrams.

A *dependency* of a vector set is a coefficient function whose weighted
sum of the vectors is zero.  For positively spanning sets the simplex
dependencies linearly span the whole dependency space, so a nonnegative
basis exists: the first linearly independent ones in simplex order.  With
simplex indicator functions in their place, the same choice gives the
characteristic basis of a locally equilibrated set.  Evaluating a
dependency basis at each vector and normalising on the L1 sphere gives
the Gale diagram, whose point classes match simplex-membership classes
exactly on locally equilibrated sets.  Each dependency is re-checked by
``spanset._is_dependency``; the simplex dependencies come certified.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, PropertyViolation
from .ratlin import QVec, kernel_basis, rank, _integer_row, _reduce
from .simplicial import Simplex, enumerate_simplices
from .spanset import VecSet, _is_dependency, _mask, _require

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Dependency:
    """A coefficient function on a vector set summing the vectors to zero."""

    coeffs: tuple[Fraction, ...]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def __len__(self) -> int:
        return len(self.coeffs)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)


@dataclass(frozen=True)
class GaleDiagram:
    """L1-normalised evaluations of a dependency basis at each vector."""

    basis_used: tuple[Dependency, ...]
    points: tuple[QVec, ...]


def _check_dependency(X: VecSet, v) -> None:
    if not _is_dependency(X, dict(enumerate(v))):
        raise PropertyViolation("coefficients do not form a dependency")


def _indicator(X: VecSet, s: Simplex) -> list[Fraction]:
    """The coefficients 1 on the members of s and 0 elsewhere."""
    return [_ONE if i in s else _ZERO for i in X.indices()]


def dependency_basis(X: VecSet) -> list[Dependency]:
    """Canonical basis of the space of dependencies (may be empty)."""
    out = [Dependency(tuple(k)) for k in kernel_basis(X.vectors)]
    for v in out:
        _check_dependency(X, v)
    return out


def simplex_dependency(X: VecSet, s: Simplex) -> Dependency:
    """The strictly positive dependency of one simplex, zero elsewhere."""
    return Dependency(tuple(s.dependency.get(i, _ZERO) for i in X.indices()))


def _first_independent(X: VecSet, row, what: str) -> list[Dependency]:
    """The first linearly independent ``row(s)`` over the simplices s of X,
    in canonical order: the pivots of one reduction, a basis of the
    dependency space, re-checked."""
    rows = [row(s) for s in enumerate_simplices(X)]
    reduced = _reduce([_integer_row(v) for v in rows], len(X))
    chosen = [v for v, r in zip(rows, reduced) if r is None]
    if len(chosen) != len(X) - X.rank():
        raise PropertyViolation(f"{what} failed to span")
    for v in chosen:
        _check_dependency(X, v)
    return [Dependency(tuple(v)) for v in chosen]


def nonneg_dependency_basis(X: VecSet) -> list[Dependency]:
    """A basis of the dependency space with nonnegative coefficients.

    Requires X to positively span its hull.  The basis is the first
    linearly independent simplex dependencies in canonical simplex order.
    They span: a dependency plus a large multiple of a strictly positive
    one is nonnegative, and a nonnegative dependency is a sum of simplex
    dependencies on subsets of its support (conformal decomposition into
    elementary vectors, Rockafellar 1969).
    """
    _require(X)
    return _first_independent(
        X, lambda s: list(simplex_dependency(X, s).coeffs), "nonnegative dependencies"
    )


def is_locally_equilibrated(X: VecSet) -> bool:
    """Whether the members of every simplex sum exactly to zero."""
    return all(_is_dependency(X, dict.fromkeys(s.members, _ONE)) for s in enumerate_simplices(X))


def gale_diagram(X: VecSet, basis: list[Dependency]) -> GaleDiagram:
    """Evaluate a dependency basis at each vector, normalised on the L1 sphere.

    The L1 sphere keeps every coordinate rational.  A zero evaluation stays
    zero.  The basis must actually be a basis of the dependency space.
    """
    n = len(basis)
    if n != len(X) - X.rank():
        raise PreconditionError("basis does not span the dependency space")
    for v in basis:
        if len(v) != len(X):
            raise PreconditionError("dependency length mismatch")
        _check_dependency(X, v)
    if rank([v.coeffs for v in basis]) != n:
        raise PreconditionError("basis is linearly dependent")
    points = []
    for i in X.indices():
        w = [v[i] for v in basis]
        norm = sum((abs(c) for c in w), _ZERO) or _ONE
        points.append(QVec(c / norm for c in w))
    return GaleDiagram(tuple(basis), tuple(points))


def characteristic_basis(X: VecSet) -> list[Dependency]:
    """A dependency basis of simplex indicator functions.

    Exists whenever X positively spans its hull and is locally
    equilibrated: the first linearly independent indicators in canonical
    simplex order.
    """
    _require(X)
    if not is_locally_equilibrated(X):
        raise PreconditionError("set is not locally equilibrated")
    return _first_independent(X, lambda s: _indicator(X, s), "indicator functions")


@dataclass(frozen=True)
class GaleReport:
    """Pairwise comparison of Gale points against simplex memberships."""

    ok: bool
    violations: tuple[tuple[int, int], ...]
    point_classes: tuple[tuple[int, ...], ...]


def verify_gale_theorem(X: VecSet) -> GaleReport:
    """Check Gale-point equality equals simplex-membership equality.

    Requires a locally equilibrated positively spanning set; the diagram
    is built over an indicator-function basis.  Reports every violating
    pair (there are none when the implementation is sound) and the
    partition of indices into point classes.
    """
    basis = characteristic_basis(X)  # enforces both preconditions
    diagram = gale_diagram(X, basis)
    simplices = enumerate_simplices(X)
    membership = [
        _mask(k for k, s in enumerate(simplices) if i in s) for i in X.indices()
    ]
    violations = []
    for i in X.indices():
        for j in range(i + 1, len(X)):
            same_point = diagram.points[i] == diagram.points[j]
            same_membership = membership[i] == membership[j]
            if same_point != same_membership:
                violations.append((i, j))
    classes: dict[QVec, list[int]] = {}
    for i in X.indices():
        classes.setdefault(diagram.points[i], []).append(i)
    ordered = tuple(tuple(v) for _, v in sorted(classes.items(), key=lambda kv: kv[1]))
    return GaleReport(not violations, tuple(violations), ordered)
