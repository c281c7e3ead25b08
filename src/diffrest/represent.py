"""Representations of finite algebras by concrete partial functions.

Four constructions are provided: the canonical one over maximal
filters, its injective refinement over equivalence classes of maximal
filters, and the two atom-based complete versions.  On a finite algebra
that passes the axioms the maximal filters are the up-sets of the atoms
and their classes are the atoms' domain classes, so all four are built
from the atoms; the filter kinds label each atom with its filter's
members and list the atoms in the order of those labels.  A verifier checks
any representation-shaped object independently, with the product walk
of ``ConcreteAlgebra``, and a completeness report decides exactly, in
polynomial time, whether existing meets and joins are turned into
intersections and unions: one bound set per element and pair stands in
for every subset.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .algebra import (
    AxiomFailure,
    FiniteAlgebra,
    InconsistencyError,
    _domain_classes,
    check_axioms,
    mask_iter,
    per_algebra,
)
from .filters import Filter
from .pfun import PartialFunction, _broken_products, _pair_masks


class Representation(NamedTuple):
    """A state set plus one partial function on it per algebra element.

    ``states`` holds descriptors (filter member tuples, class tags,
    atom ids, or bare points for external representations); the
    functions themselves live over the state indices 0..len(states)-1.
    """

    source: FiniteAlgebra
    kind: str
    states: tuple
    assignment: tuple[PartialFunction, ...]


class VerificationFailure(NamedTuple):
    check: str
    witness: tuple


class VerificationReport(NamedTuple):
    passed: bool
    failures: tuple[VerificationFailure, ...]


class CompletenessReport(NamedTuple):
    meet_complete: bool
    meet_witness: frozenset[int] | None
    join_complete: bool
    join_witness: frozenset[int] | None
    atomic: bool
    atomic_witness: tuple | None
    subsets_checked: int

    @property
    def fully_complete(self) -> bool:
        return self.meet_complete and self.join_complete and self.atomic


# ---------------------------------------------------------------------------
# Order helpers
# ---------------------------------------------------------------------------


def _bound(cones: str, alg: FiniteAlgebra, subset_mask: int) -> int | None:
    """The element of the subset's common cone (the intersection of its
    members' cones) whose own cone holds all of it, or None.  With the
    down-sets as ``cones`` this is the greatest lower bound; with the
    up-sets, the least upper bound (for the empty subset, the least
    element)."""
    cone = getattr(alg, cones)
    common = alg.all_mask
    for s in mask_iter(subset_mask):
        common &= cone[s]
    return next((g for g in mask_iter(common) if not common & ~cone[g]), None)


_glb = partial(_bound, "down_masks")
_lub = partial(_bound, "up_masks")


@per_algebra
def _bounds(alg: FiniteAlgebra) -> dict[tuple, int | None]:
    """The bounds that completeness reports on ``alg`` have taken, by
    (``_glb`` or ``_lub``, subset): they depend on the order alone."""
    return {}


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


def atoms(alg: FiniteAlgebra) -> tuple[int, ...]:
    """Minimal nonzero elements.

    Also certifies the restriction behaviour of atoms: restricting by an
    atom yields bottom or another atom, the latter exactly when the atom
    is domain-below the restricted element.
    """
    ats = alg.order_atoms()
    atom_set = set(ats)
    for x in ats:
        for a in range(alg.size):
            t = alg.restrict[x][a]
            if t != alg.zero and t not in atom_set:
                raise InconsistencyError(
                    f"atom {alg.element_name(x)} restricts {alg.element_name(a)} "
                    f"to the non-atom {alg.element_name(t)}"
                )
            if (t in atom_set) != alg.domleq(x, a):
                raise InconsistencyError(
                    f"atom restriction disagrees with the domain preorder at "
                    f"({alg.element_name(x)}, {alg.element_name(a)})"
                )
    return ats


# ---------------------------------------------------------------------------
# The representation constructions
# ---------------------------------------------------------------------------


@per_algebra
def _atom_states(alg: FiniteAlgebra, tag: str):
    """The states of the constructions tagged ``tag`` ("filter" or
    "atom"): labels, the masks of the elements above each state's atom,
    and class ids.  A filter state is an atom's up-set, its maximal
    filter, labelled and sorted by its member tuple."""
    ats, up, classes = atoms(alg), alg.up_masks, _domain_classes(alg)
    if tag == "filter":
        ats = sorted(ats, key=lambda x: tuple(mask_iter(up[x])))
        labels = tuple(tuple(mask_iter(up[x])) for x in ats)
    else:
        labels = ats
    return labels, tuple(up[x] for x in ats), tuple(classes[x] for x in ats)


def _build(alg: FiniteAlgebra, kind: str, tag: str, injective: bool) -> Representation:
    """Gate on the axioms, then build over the states that
    ``_atom_states`` gives for ``tag``.  An element acts on equivalent
    states, sending each to the states containing it; the injective kind
    sends a tag per class instead, and its states are ``("class", c)``
    and ``(tag, label)``.
    """
    report = check_axioms(alg)
    if not report.passed:
        raise AxiomFailure(report)
    labels, masks, cls = _atom_states(alg, tag)
    k = len(labels)
    # Functionality certificate: equivalent states sharing any element
    # coincide.
    for i in range(k):
        for j in range(k):
            if cls[i] == cls[j] and masks[i] & masks[j] and masks[i] != masks[j]:
                f, g = (Filter(alg, m) for m in (masks[i], masks[j]))
                raise InconsistencyError(
                    f"equivalent maximal filters {f.render()} and {g.render()} "
                    "share an element but differ"
                )
    if not injective:
        theta = [
            {(i, j) for j in range(k) if masks[j] >> a & 1 for i in range(k) if cls[i] == cls[j]}
            for a in range(alg.size)
        ]
        base = frozenset(range(k))
        return Representation(alg, kind, labels, tuple(PartialFunction(base, g) for g in theta))

    class_ids = sorted(set(cls))
    cpos = {c: i for i, c in enumerate(class_ids)}
    nc = len(class_ids)
    base = frozenset(range(nc + k))
    # Each state j gives at most the one pair (its class's tag, j), so
    # the values are injective; it is there exactly where the plain kind
    # has (i, j) for the states i of j's class.
    assignment = tuple(
        PartialFunction(base, {(cpos[cls[j]], nc + j) for j in range(k) if masks[j] >> a & 1})
        for a in range(alg.size)
    )
    tagged = tuple(("class", c) for c in class_ids) + tuple((tag, x) for x in labels)
    return Representation(alg, kind, tagged, assignment)


def canonical_theta(alg: FiniteAlgebra) -> Representation:
    """States are maximal filters; an element acts on equivalent filters
    containing it."""
    return _build(alg, "canonical-theta", "filter", injective=False)


def injective_eta(alg: FiniteAlgebra) -> Representation:
    """States are class tags plus maximal filters; values are injective."""
    return _build(alg, "injective-eta", "filter", injective=True)


def atomic_theta(alg: FiniteAlgebra) -> Representation:
    """States are atoms; an element acts on equivalent-domain atoms below it."""
    return _build(alg, "atomic-theta", "atom", injective=False)


def atomic_eta(alg: FiniteAlgebra) -> Representation:
    """States are atom classes plus atoms; values are injective."""
    return _build(alg, "atomic-eta", "atom", injective=True)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_representation(rep: Representation) -> VerificationReport:
    """Independently check a representation-shaped object.

    Verifies functionality of every value, injectivity of the
    assignment, one base for all values, and preservation of both
    operations on all pairs.  One walk of the products on pair masks,
    the walk ``ConcreteAlgebra`` certifies with, lists every pair that
    is not preserved.
    """
    alg = rep.source
    failures: list[VerificationFailure] = []
    if len(rep.assignment) != alg.size:
        failures.append(
            VerificationFailure("assignment-size", (len(rep.assignment), alg.size))
        )
        return VerificationReport(False, tuple(failures))

    for a in range(alg.size):
        seen: dict[int, int] = {}
        for x, y in sorted(rep.assignment[a].graph):
            if x in seen and seen[x] != y:
                failures.append(
                    VerificationFailure("functionality", (a, (x, seen[x]), (x, y)))
                )
                break
            seen[x] = y

    graphs = {}
    for a in range(alg.size):
        g = rep.assignment[a].graph
        if g in graphs:
            failures.append(VerificationFailure("injectivity", (graphs[g], a)))
        else:
            graphs[g] = a

    mixed = [a for a, f in enumerate(rep.assignment) if f.base != rep.assignment[0].base]
    if mixed:
        failures.append(VerificationFailure("base", (0, mixed[0])))
        return VerificationReport(False, tuple(failures))

    _, masks, doms, _ = _pair_masks([f.graph for f in rep.assignment])
    for op, a, b, _ in _broken_products(alg, masks, doms):
        failures.append(VerificationFailure(f"{op}-preserved", (a, b)))
    return VerificationReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------

@per_algebra
def _check_partial_order(alg: FiniteAlgebra) -> None:
    """Raise unless the element order is reflexive, antisymmetric and
    transitive; every algebra that passes the axioms has such an order."""
    down, name = alg.down_masks, alg.element_name
    for a in range(alg.size):
        twins = down[a] & alg.up_masks[a] & ~(1 << a)
        gaps = [(b, down[b] & ~down[a]) for b in mask_iter(down[a]) if down[b] & ~down[a]]
        if not down[a] >> a & 1:
            fault = f"not reflexive at {name(a)}"
        elif twins:
            fault = f"not antisymmetric at ({name(a)}, {name(twins.bit_length() - 1)})"
        elif gaps:
            b, c = gaps[0]
            fault = f"not transitive at ({name(c.bit_length() - 1)}, {name(b)}, {name(a)})"
        else:
            continue
        raise InconsistencyError(f"the element order is {fault}")


def completeness_report(
    rep: Representation, subset_cap: int | None = None
) -> CompletenessReport:
    """Decide exactly whether h, the assignment, turns every existing meet
    into an intersection and every existing join into a union, and
    whether the algebra is atomic for it.

    Raises ``InconsistencyError`` unless the assignment has one value
    per element and the element order is a partial order.  Let
    holders(p) be the elements whose graph holds the pair p.
    h is meet complete iff it is monotone and no element w and pair
    p not in h(w) give a nonempty U = holders(p) & up(w) with glb(U) = w.
    It is join complete iff it is monotone and no w and pair p in h(w)
    give lub(T) = w for T = down(w) - holders(p); for an empty T the lub
    is the least element, so this also asks that h(bottom) is empty.

    Why this is exact: if a subset S has glb w and p lies in every h(s)
    but not in h(w), then S is inside U.  The lower bounds of U then lie
    between down(w) and those of S, which are down(w), so glb(U) = w and
    U fails too.  If instead some p in h(w) misses h(s) for an s in S,
    then w <= s breaks monotonicity, and so does the subset {w, s}.
    Joins are the dual: p in h(w) outside every h(s) puts S inside T.

    A witness is a failing subset: {w, s} for the first monotonicity
    break (w, then s, by id), else U or T for the first w by id and then
    the first pair in sorted order.  ``subsets_checked`` counts the bound
    sets examined, one per element and pair; pairs with equal holders
    share them.  A bound depends on the order alone, so the bounds are
    kept on the algebra and shared by every report on it: the four
    constructions of a finite algebra have the same pair holders, and
    each bound is taken once for all four.  ``subset_cap`` is accepted and
    ignored: it bounded the former subset scan, and the benchmark worker
    (``bench/worker.py``) is the one caller that still passes it.
    """
    alg = rep.source
    n, down, up = alg.size, alg.down_masks, alg.up_masks
    if len(rep.assignment) != n:
        raise InconsistencyError(f"assignment has {len(rep.assignment)} values for {n} elements")
    _check_partial_order(alg)
    graphs = [f.graph for f in rep.assignment]
    held_by: dict[tuple[int, int], int] = {}
    for a, g in enumerate(graphs):
        for pair in g:
            held_by[pair] = held_by.get(pair, 0) | 1 << a
    # Pairs with the same holders share their bound sets: count them, in
    # sorted order of their first pair.
    holders: dict[int, int] = {}
    for pair in sorted(held_by):
        holders[held_by[pair]] = holders.get(held_by[pair], 0) + 1
    broken = next(
        (frozenset((w, s)) for w in range(n) for s in mask_iter(up[w]) if graphs[w] - graphs[s]),
        None,
    )
    witness = {_glb: broken, _lub: broken}
    bounds, checked = _bounds(alg), 0
    for w in range(n):
        for held, count in holders.items():
            if held >> w & 1:
                bound, bound_set = _lub, down[w] & ~held
            elif held & up[w]:
                bound, bound_set = _glb, held & up[w]
            else:
                continue
            checked += count
            key = bound, bound_set
            if key not in bounds:
                bounds[key] = bound(alg, bound_set)
            if bounds[key] == w and witness[bound] is None:
                witness[bound] = frozenset(mask_iter(bound_set))

    atom_list = alg.order_atoms()
    covered = frozenset()
    for x in atom_list:
        covered |= rep.assignment[x].graph
    atomic_ok, atomic_witness = True, None
    for a in range(n):
        for pair in sorted(rep.assignment[a].graph):
            if pair not in covered:
                atomic_ok, atomic_witness = False, (a, pair)
                break
        if not atomic_ok:
            break

    return CompletenessReport(
        witness[_glb] is None,
        witness[_glb],
        witness[_lub] is None,
        witness[_lub],
        atomic_ok,
        atomic_witness,
        checked,
    )
