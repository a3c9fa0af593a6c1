"""The boolean lattice of positively spanning subsets.

For a set X that positively spans its hull, the subsets of X that
positively span linear subspaces are exactly the unions of simplex
subsets.  Ordered by inclusion they form a boolean lattice; mapping each
member Y to its simplex set embeds the lattice into the powerset of the
simplices of X, bijectively when X is a positive basis.
"""

from dataclasses import dataclass

from .errors import PreconditionError
from .simplicial import Simplex, enumerate_simplices, positively_spanning_subsets
from .spanset import VecSet, is_pss


@dataclass(frozen=True)
class LatticeElement:
    """A positively spanning subset, keyed by its member indices.

    ``simplices`` holds positions into the parent lattice's simplex list;
    a member always equals the union of its own simplices.
    """

    subset: tuple[int, ...]
    simplices: tuple[int, ...]


class SpanLattice:
    """All positively spanning subsets of one vector set."""

    def __init__(self, base: VecSet, simplices: list[Simplex], elements):
        self.base = base
        self.all_simplices = simplices
        self.elements: list[LatticeElement] = elements
        self._by_subset = {e.subset: e for e in elements}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def element(self, subset) -> LatticeElement:
        key = tuple(sorted(subset))
        if key not in self._by_subset:
            raise PreconditionError("subset is not a lattice element")
        return self._by_subset[key]

    def _require(self, a: LatticeElement) -> LatticeElement:
        mine = self._by_subset.get(a.subset)
        if mine is None or mine.simplices != a.simplices:
            raise PreconditionError("element does not belong to this lattice")
        return mine

    def _from_simplex_ids(self, ids) -> LatticeElement:
        members: set[int] = set()
        for j in ids:
            members.update(self.all_simplices[j].members)
        return self._by_subset[tuple(sorted(members))]

    def meet(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        """Union of the simplices contained in the intersection."""
        a, b = self._require(a), self._require(b)
        # a simplex lies in the intersection iff it lies in both elements
        ids = [j for j in a.simplices if j in b.simplices]
        return self._from_simplex_ids(ids)

    def join(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        """Plain union; always a lattice member."""
        a, b = self._require(a), self._require(b)
        key = tuple(sorted(set(a.subset) | set(b.subset)))
        return self._by_subset[key]

    def complement(self, a: LatticeElement) -> LatticeElement:
        """Union of all simplices not contained in the element."""
        a = self._require(a)
        ids = [j for j in range(len(self.all_simplices)) if j not in a.simplices]
        return self._from_simplex_ids(ids)

    @property
    def bottom(self) -> LatticeElement:
        return self._by_subset[()]

    @property
    def top(self) -> LatticeElement:
        return self._by_subset[tuple(self.base.indices())]


def build_lattice(X: VecSet) -> SpanLattice:
    """Enumerate every positively spanning subset of X.

    The members are the unions of simplices, collected by
    :func:`positively_spanning_subsets`; each is listed with the simplices
    it contains.  For a positive basis the map to simplex sets is
    injective, so the lattice has exactly 2^(number of simplices) elements.
    """
    if not is_pss(X):
        raise PreconditionError("set does not positively span its hull")
    simplices = enumerate_simplices(X)
    elements = []
    for subset in positively_spanning_subsets(X):
        members = set(subset)
        ids = tuple(
            j for j, s in enumerate(simplices) if members.issuperset(s.members)
        )
        elements.append(LatticeElement(subset, ids))
    return SpanLattice(X, simplices, elements)
