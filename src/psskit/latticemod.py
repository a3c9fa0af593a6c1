"""The boolean lattice of positively spanning subsets.

For a set X that positively spans its hull, the subsets of X that
positively span linear subspaces are exactly the unions of simplex
subsets.  Ordered by inclusion they form a boolean lattice; mapping each
member Y to its simplex set embeds the lattice into the powerset of the
simplices of X, bijectively when X is a positive basis.

An element is its subset.  The lattice keeps the set's memoized union
closure as it is, int masks with one bit per vector, which the
factorization scan shares, and a set of those masks for membership: join
ORs two element masks, meet ORs the simplex masks inside their AND, and
complement ORs those not inside an element.  At the API an element is its
sorted index tuple, and :meth:`SpanLattice.simplices` maps it to the
simplices inside it.
"""

from functools import reduce
from operator import or_

from .errors import PreconditionError
from .simplicial import Simplex, enumerate_simplices, positively_spanning_subsets
from .spanset import VecSet, _mask, _members


class SpanLattice:
    """All positively spanning subsets of one vector set.

    ``elements`` holds their masks in size-then-members order; iteration
    gives them as sorted index tuples.
    """

    def __init__(self, base: VecSet, simplices: list[Simplex], elements: list[int]):
        self.base = base
        self.all_simplices = simplices
        self.elements = elements
        self._simplex_masks = [s.mask for s in simplices]
        self._masks = set(elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return map(_members, self.elements)

    def _element_mask(self, subset) -> int:
        self.base.matrix(subset := tuple(subset))  # PreconditionError on a bad index
        mask = _mask(subset)
        if mask not in self._masks or mask.bit_count() != len(subset):  # a repeat ORs into one bit
            raise PreconditionError("subset is not a lattice element")
        return mask

    def _inside(self, mask: int) -> tuple[int, ...]:
        """Positions of the simplices inside the subset ``mask``, unchecked."""
        return tuple(j for j, s in enumerate(self._simplex_masks) if not s & ~mask)

    def element(self, subset) -> tuple[int, ...]:
        """``subset`` sorted, once it is checked to be an element."""
        return _members(self._element_mask(subset))

    def simplices(self, element) -> tuple[int, ...]:
        """Positions in ``all_simplices`` of the simplices inside ``element``:
        the embedding into the subsets of the simplices."""
        return self._inside(self._element_mask(element))

    def meet(self, a, b) -> tuple[int, ...]:
        """Union of the simplices contained in the intersection."""
        both = self._element_mask(a) & self._element_mask(b)
        return _members(reduce(or_, (s for s in self._simplex_masks if not s & ~both), 0))

    def join(self, a, b) -> tuple[int, ...]:
        """Plain union; always a lattice member."""
        return _members(self._element_mask(a) | self._element_mask(b))

    def complement(self, a) -> tuple[int, ...]:
        """Union of all simplices not contained in the element."""
        mask = self._element_mask(a)
        return _members(reduce(or_, (s for s in self._simplex_masks if s & ~mask), 0))

    @property
    def bottom(self) -> tuple[int, ...]:
        return ()

    @property
    def top(self) -> tuple[int, ...]:
        return tuple(self.base.indices())


def build_lattice(X: VecSet) -> SpanLattice:
    """Enumerate every positively spanning subset of X.

    X must positively span its hull, that is, its simplices must cover it
    (``spanning_equivalence`` checks the two against each other): read
    without an LP.  The members are the unions of simplices, collected by
    :func:`positively_spanning_subsets`.  For a positive basis the map to
    simplex sets is injective, so the lattice has exactly 2^(number of
    simplices) elements.
    """
    simplices = enumerate_simplices(X)
    if reduce(or_, (s.mask for s in simplices), 0) != (1 << len(X)) - 1:
        raise PreconditionError("set does not positively span its hull")
    return SpanLattice(X, simplices, positively_spanning_subsets(X))
