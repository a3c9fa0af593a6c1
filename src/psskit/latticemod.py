"""The boolean lattice of positively spanning subsets.

For a set X that positively spans its hull, the subsets of X that
positively span linear subspaces are exactly the unions of simplex
subsets.  Ordered by inclusion they form a boolean lattice; mapping each
member Y to its simplex set embeds the lattice into the powerset of the
simplices of X, bijectively when X is a positive basis.

The members come from the set's memoized union closure, which the
factorization scan shares.  Each element and simplex carries its subset
as an int mask with one bit per vector: join ORs two element masks, meet
ORs the simplex masks inside their AND, and complement ORs those not
inside an element.  Elements show sorted index tuples.
"""

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .errors import PreconditionError
from .simplicial import Simplex, enumerate_simplices, positively_spanning_subsets
from .spanset import VecSet, _mask, _members


@dataclass(frozen=True)
class LatticeElement:
    """A positively spanning subset, keyed by its member indices.

    ``simplices`` holds positions into the parent lattice's simplex list;
    a member always equals the union of its own simplices.
    """

    subset: tuple[int, ...]
    simplices: tuple[int, ...]

    @cached_property  # not a field: ==, hash and repr ignore it
    def mask(self) -> int:
        return _mask(self.subset)


class SpanLattice:
    """All positively spanning subsets of one vector set."""

    def __init__(self, base: VecSet, simplices: list[Simplex], elements):
        self.base = base
        self.all_simplices = simplices
        self.elements: list[LatticeElement] = elements
        self._masks = [s.mask for s in simplices]
        self._by_mask = {e.mask: e for e in elements}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def element(self, subset) -> LatticeElement:
        self.base.matrix(subset := tuple(subset))  # PreconditionError on a bad index
        key = tuple(sorted(subset))
        found = self._by_mask.get(_mask(key))
        if found is None or found.subset != key:  # a repeat ORs into one bit
            raise PreconditionError("subset is not a lattice element")
        return found

    def _require(self, *elements: LatticeElement) -> None:
        for a in elements:  # identity first; an equal hand-built element passes too
            if (found := self._by_mask.get(a.mask)) is not a and found != a:
                raise PreconditionError("element does not belong to this lattice")

    def meet(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        """Union of the simplices contained in the intersection."""
        self._require(a, b)
        both = a.mask & b.mask
        return self._by_mask[reduce(or_, (s for s in self._masks if not s & ~both), 0)]

    def join(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        """Plain union; always a lattice member."""
        self._require(a, b)
        return self._by_mask[a.mask | b.mask]

    def complement(self, a: LatticeElement) -> LatticeElement:
        """Union of all simplices not contained in the element."""
        self._require(a)
        return self._by_mask[reduce(or_, (s for s in self._masks if s & ~a.mask), 0)]

    @property
    def bottom(self) -> LatticeElement:
        return self._by_mask[0]

    @property
    def top(self) -> LatticeElement:
        return self._by_mask[(1 << len(self.base)) - 1]


def build_lattice(X: VecSet) -> SpanLattice:
    """Enumerate every positively spanning subset of X.

    X must positively span its hull, that is, its simplices must cover it
    (``spanning_equivalence`` checks the two against each other): read
    without an LP.  The members are the unions of simplices, collected by
    :func:`positively_spanning_subsets`; each is listed with the simplices
    it contains.  For a positive basis the map to simplex sets is
    injective, so the lattice has exactly 2^(number of simplices) elements.
    """
    simplices = enumerate_simplices(X)
    masks = [s.mask for s in simplices]
    if reduce(or_, masks, 0) != (1 << len(X)) - 1:
        raise PreconditionError("set does not positively span its hull")
    elements = [
        LatticeElement(_members(m), tuple(j for j, s in enumerate(masks) if s & ~m == 0))
        for m in positively_spanning_subsets(X)
    ]
    return SpanLattice(X, simplices, elements)
