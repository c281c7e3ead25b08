"""Filters of a finite algebra and the lifted domain preorder.

A filter is a nonempty, upward-closed, meet-closed subset of the
elements.  In a finite meet-semilattice every filter contains the meet
of its members and hence is the principal upset of that meet, so there
are exactly as many filters as elements: filter i is the up-set of
element i, and the tests cross-check exhaustiveness against a subset
scan.

On an algebra that passes the axioms the rest is read off the order.
The maximal filters are the up-sets of the atoms; cut to the downset
of an element a, those that hold a are the ultrafilters of that
Boolean downset, one per atom below a.  F sits below G in
the lifted domain preorder when restricting the members of F by those
of G never leaves F; on principal filters that is the domain preorder
of their generators, so its classes are the domain classes.  Filters,
preorder rows and ultrafilters are all bitmasks.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    AxiomFailure,
    FiniteAlgebra,
    InconsistencyError,
    TableError,
    _checked_make,
    _domain_classes,
    boolean_downset,
    check_axioms,
    derived_relations,
    mask_iter,
    per_algebra,
)


class _FilterFields(NamedTuple):
    parent: FiniteAlgebra
    members: int


class Filter(_FilterFields):
    """A nonempty, upward-closed, meet-closed set of elements, held and hashed as a mask."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, parent: FiniteAlgebra, members: int):
        alg, mask = parent, members
        if type(mask) is not int:
            raise InconsistencyError(f"filter mask {mask!r} is not an integer")
        if mask < 0:
            raise InconsistencyError(f"filter mask {mask} is negative")
        if not mask:
            raise InconsistencyError("filters are nonempty")
        if mask >> alg.size:
            bad = next(mask_iter(mask >> alg.size)) + alg.size
            raise InconsistencyError(f"filter member {bad} is not an element id")
        ids, meet = bytes(mask_iter(mask)), alg.tables["meet"]
        if alg.up_closure(mask) != mask:
            raise InconsistencyError(f"{list(ids)} is not upward closed")
        for a in ids:  # a's meets with the members, less the members, are outside
            if ids.translate(meet[a]).translate(None, ids):
                b = next(b for b in ids if not mask >> meet[a][b] & 1)
                raise InconsistencyError(f"{list(ids)} is not meet-closed at ({a}, {b})")
        return tuple.__new__(cls, (parent, members))

    def __hash__(self) -> int:
        return hash((self.members,))

    @property
    def proper(self) -> bool:
        return not self.members >> self.parent.zero & 1

    def sort_key(self) -> tuple[int, ...]:
        return tuple(mask_iter(self.members))

    def render(self) -> str:
        inner = ", ".join(self.parent.element_name(a) for a in self.sort_key())
        return "{" + inner + "}"


def principal_filter(alg: FiniteAlgebra, a: int) -> Filter:
    if type(a) is not int or not 0 <= a < alg.size:
        raise TableError(f"no element {a!r}")
    return Filter(alg, alg.up_masks[a])


class FilterFamily(NamedTuple):
    """All filters of an algebra with the lifted preorder precomputed.

    Filter i is the principal filter of element i, so ``all_filters[i]``
    has the members ``parent.up_masks[i]``.  ``maximal`` holds the
    filters of the atoms, in id order.  ``domhat[i]`` is the mask of the
    j such that filter i is below filter j, the domain preorder's row i;
    ``approx_class`` assigns each filter the domain class of its
    generator, the classes numbered by least member.
    """

    parent: FiniteAlgebra
    all_filters: tuple[Filter, ...]
    maximal: tuple[Filter, ...]
    domhat: tuple[int, ...]
    approx_class: tuple[int, ...]

    def index_of(self, f: Filter) -> int:
        """The element whose up-set ``f`` is; ValueError for no element."""
        return self.parent.up_masks.index(f.members)

    @property
    def n_classes(self) -> int:
        return max(self.approx_class) + 1 if self.approx_class else 0


@per_algebra
def enumerate_filters(alg: FiniteAlgebra) -> FilterFamily:
    """Enumerate every filter, the lifted preorder, and its classes.

    Raises ``AxiomFailure`` unless ``alg`` passes the axioms.  On an
    algebra that does, the maximal filters are the up-sets of the atoms
    and the lifted preorder is the domain preorder, so the family is read
    off the element order, the domain preorder and its classes.
    """
    report = check_axioms(alg)
    if not report.passed:
        raise AxiomFailure(report)
    filters = tuple(principal_filter(alg, a) for a in range(alg.size))
    maximal = tuple(filters[x] for x in alg.order_atoms())
    return FilterFamily(alg, filters, maximal, derived_relations(alg).domleq, _domain_classes(alg))


@per_algebra
def maximal_filters(alg: FiniteAlgebra) -> tuple[Filter, ...]:
    """Maximal proper filters, cross-checked against the inclusion poset."""
    family = enumerate_filters(alg)
    proper = [f.members for f in family.all_filters if f.proper]
    # f is a poset maximum when no other proper filter holds all of it.
    poset_maxima = {f for f in proper if not any(f != g and f & g == f for g in proper)}
    criterion = {f.members for f in family.maximal}
    if criterion != poset_maxima:
        raise InconsistencyError(
            "maximality criterion disagrees with the inclusion poset: "
            f"{sorted(map(list, map(mask_iter, criterion)))} "
            f"vs {sorted(map(list, map(mask_iter, poset_maxima)))}"
        )
    return family.maximal


def ultrafilter_bijection(
    alg: FiniteAlgebra, a: int
) -> tuple[dict[Filter, int], dict[int, Filter]]:
    """Match maximal filters containing ``a`` with ultrafilters of its downset.

    Forward cuts each one to the downset; backward is the inverse, in
    increasing order of the ultrafilters' member lists.  Ultrafilters
    are masks.  At bottom both maps are empty.  Raises ``AxiomFailure``
    unless ``alg`` passes the axioms, and what ``boolean_downset`` raises.
    """
    maximal = maximal_filters(alg)
    boolean_downset(alg, a)  # refuses an id that is not an element, and certifies the downset
    forward = {mu: mu.members & alg.down_masks[a] for mu in maximal if mu.members >> a & 1}
    order = sorted(forward.items(), key=lambda item: list(mask_iter(item[1])))
    return forward, {nu: mu for mu, nu in order}
