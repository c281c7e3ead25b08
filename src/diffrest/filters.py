"""Filters of a finite algebra and the lifted domain preorder.

A filter is a nonempty, upward-closed, meet-closed subset of the
elements.  In a finite meet-semilattice every filter contains the meet
of its members and hence is the principal upset of that meet, so there
are exactly as many filters as elements; enumeration builds them
directly and the tests cross-check exhaustiveness against a subset
scan.

The domain preorder lifts to filters: F sits below G when restricting
the members of F by the members of G never leaves F: the up-set of every
g |> f (g in G, f in F) lies in F.  So one mask per F, of the g that pass
for every f, decides every G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    FiniteAlgebra,
    InconsistencyError,
    boolean_downset,
    mask_iter,
    mask_of,
    per_algebra,
)


@dataclass(frozen=True)
class Filter:
    """An upward-closed, meet-closed, nonempty element subset."""

    parent: FiniteAlgebra
    members: frozenset[int]

    def __post_init__(self):
        alg = self.parent
        if not self.members:
            raise InconsistencyError("filters are nonempty")
        bad = [a for a in self.members if not 0 <= a < alg.size]
        if bad:
            raise InconsistencyError(f"filter member {min(bad)} is not an element id")
        mask = mask_of(self.members)
        if alg.up_closure(mask) != mask:
            raise InconsistencyError(f"{sorted(self.members)} is not upward closed")
        for a in self.members:
            row = alg.meet_table[a]
            for b in self.members:
                if not mask >> row[b] & 1:
                    raise InconsistencyError(
                        f"{sorted(self.members)} is not meet-closed at ({a}, {b})"
                    )

    @property
    def proper(self) -> bool:
        return self.parent.zero not in self.members

    def sort_key(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def generator(self) -> int:
        """The least element of the filter in the element order."""
        g = None
        for a in self.members:
            if g is None or self.parent.leq(a, g):
                g = a
        return g

    def render(self) -> str:
        inner = ", ".join(self.parent.element_name(a) for a in self.sort_key())
        return "{" + inner + "}"


def principal_filter(alg: FiniteAlgebra, a: int) -> Filter:
    return Filter(alg, frozenset(mask_iter(alg.up_masks[a])))


def _inside(alg: FiniteAlgebra, mask: int) -> int:
    """The elements whose whole up-set lies in ``mask``."""
    return mask_of(x for x, up in enumerate(alg.up_masks) if not up & ~mask)


def _stable(alg: FiniteAlgebra, members) -> int:
    """The g such that the up-set of each g |> f, f in ``members``, lies in ``members``."""
    inside = _inside(alg, mask_of(members))
    return mask_of(
        g for g, row in enumerate(alg.restrict) if all(inside >> row[f] & 1 for f in members)
    )


@dataclass(frozen=True)
class FilterFamily:
    """All filters of an algebra with the lifted preorder precomputed.

    ``domhat`` holds index pairs (i, j) meaning filter i is below filter
    j; ``approx_class`` assigns each filter its equivalence class id,
    numbered by least filter index.
    """

    parent: FiniteAlgebra
    all_filters: tuple[Filter, ...]
    maximal: tuple[Filter, ...]
    domhat: frozenset[tuple[int, int]]
    approx_class: tuple[int, ...]

    def index_of(self, f: Filter) -> int:
        return self._index[f.members]

    @cached_property
    def _index(self) -> dict[frozenset[int], int]:
        return {g.members: i for i, g in enumerate(self.all_filters)}

    @property
    def n_classes(self) -> int:
        return max(self.approx_class) + 1 if self.approx_class else 0


@per_algebra
def enumerate_filters(alg: FiniteAlgebra) -> FilterFamily:
    """Enumerate every filter, the lifted preorder, and its classes."""
    n = alg.size
    filters = tuple(principal_filter(alg, a) for a in range(n))
    if len({f.members for f in filters}) != n:
        raise InconsistencyError("principal upsets are not distinct")

    # below[i] is the mask of the j with filter i below filter j.
    below = [_inside(alg, _stable(alg, f.members)) for f in filters]
    # The lifted preorder must contain reverse inclusion.
    for i, up in enumerate(alg.up_masks):
        missing = _inside(alg, up) & ~below[i]
        if missing:
            raise InconsistencyError(
                f"lifted preorder misses inclusion at ({i}, {next(mask_iter(missing))})"
            )

    approx = [-1] * n
    next_class = 0
    for i in range(n):
        if approx[i] != -1:
            continue
        approx[i] = next_class
        for j in range(i + 1, n):
            if below[i] >> j & below[j] >> i & 1:
                approx[j] = next_class
        next_class += 1

    domhat = frozenset((i, j) for i in range(n) for j in mask_iter(below[i]))
    maximal = tuple(f for f in filters if f.proper and is_maximal(f))
    return FilterFamily(alg, filters, maximal, domhat, tuple(approx))


def is_maximal(f: Filter) -> bool:
    """A filter with least member ``w`` is maximal precisely when it is
    proper and for every ``b`` exactly one of ``w meet b`` and ``w - b``
    belongs to it."""
    alg, w, members = f.parent, f.generator(), f.members
    meet, minus = alg.meet_table[w], alg.minus[w]
    return f.proper and all(
        (meet[b] in members) != (minus[b] in members) for b in range(alg.size)
    )


@per_algebra
def maximal_filters(alg: FiniteAlgebra) -> tuple[Filter, ...]:
    """Maximal proper filters, cross-checked against the inclusion poset."""
    family = enumerate_filters(alg)
    proper = [f for f in family.all_filters if f.proper]
    poset_maxima = {
        f.members
        for f in proper
        if not any(f.members < g.members for g in proper)
    }
    criterion = {f.members for f in family.maximal}
    if criterion != poset_maxima:
        raise InconsistencyError(
            "maximality criterion disagrees with the inclusion poset: "
            f"{sorted(map(sorted, criterion))} vs {sorted(map(sorted, poset_maxima))}"
        )
    return family.maximal


def ultrafilter_bijection(
    alg: FiniteAlgebra, a: int
) -> tuple[dict[Filter, frozenset[int]], dict[frozenset[int], Filter]]:
    """Match maximal filters containing ``a`` with ultrafilters of its downset.

    Forward: intersect with the downset.  Backward: upward closure.
    Both composites are checked to be identities.  For ``a`` equal to
    bottom there is nothing to match and both maps are empty.
    """
    if a == alg.zero:
        return {}, {}
    downset = boolean_downset(alg, a)
    ufs = set(downset.ultrafilters())
    containing = [f for f in maximal_filters(alg) if a in f.members]

    forward: dict[Filter, frozenset[int]] = {}
    for mu in containing:
        nu = frozenset(mu.members) & frozenset(downset.members)
        if nu not in ufs:
            raise InconsistencyError(
                f"{mu.render()} does not cut the downset of {alg.element_name(a)} "
                "to an ultrafilter"
            )
        forward[mu] = nu
    backward: dict[frozenset[int], Filter] = {}
    family = enumerate_filters(alg)
    for nu in sorted(ufs, key=sorted):
        up = frozenset(mask_iter(alg.up_closure(mask_of(nu))))
        # Reuse the family's filter, already checked upward and meet closed.
        mu = family.all_filters[family._index[up]] if up in family._index else Filter(alg, up)
        if not is_maximal(mu):
            raise InconsistencyError("upward closure of an ultrafilter is not maximal")
        backward[nu] = mu

    for mu, nu in forward.items():
        if backward[nu].members != mu.members:
            raise InconsistencyError("round trip through the downset moved a filter")
    for nu, mu in backward.items():
        if forward[mu] != nu:
            raise InconsistencyError("round trip through the algebra moved an ultrafilter")
    return forward, backward
