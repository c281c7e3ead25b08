"""Representations of finite algebras by concrete partial functions.

Four constructions are provided: the canonical one over maximal
filters, its injective refinement over equivalence classes of maximal
filters, and the two atom-based complete versions.  A verifier checks
any representation-shaped object independently, and a completeness
report decides exactly, in polynomial time, whether existing meets and
joins are turned into intersections and unions: one bound set per
element and pair stands in for every subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import (
    AlgebraError,
    AxiomFailure,
    FiniteAlgebra,
    InconsistencyError,
    boolean_downset,
    check_axioms,
    domain_quotient,
    mask_iter,
    mask_of,
    per_algebra,
)
from .filters import Filter, enumerate_filters
from .pfun import ConcreteAlgebra, PartialFunction, _pair_masks, is_injective_pf


class NotAtomicError(AlgebraError):
    """The atom-based constructions require an atomic algebra."""


class NonHomomorphismError(AlgebraError):
    """A mapping offered as a homomorphism fails to preserve an operation."""


@dataclass(frozen=True)
class Representation:
    """A state set plus one partial function on it per algebra element.

    ``states`` holds descriptors (filter member tuples, class tags,
    atom ids, or bare points for external representations); the
    functions themselves live over the state indices 0..len(states)-1.
    """

    source: FiniteAlgebra
    kind: str
    states: tuple
    assignment: tuple[PartialFunction, ...]

    def graph_of(self, a: int) -> frozenset[tuple[int, int]]:
        return self.assignment[a].graph


@dataclass(frozen=True)
class VerificationFailure:
    check: str
    witness: tuple

    def render(self, alg: FiniteAlgebra) -> str:
        names = tuple(
            alg.element_name(w) if isinstance(w, int) else str(w) for w in self.witness
        )
        return f"FAIL {self.check} witness {' '.join(names)}"


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    failures: tuple[VerificationFailure, ...]
    image: ConcreteAlgebra | None


@dataclass(frozen=True)
class CompletenessReport:
    meet_complete: bool
    meet_witness: frozenset[int] | None
    join_complete: bool
    join_witness: frozenset[int] | None
    atomic: bool
    atomic_witness: tuple | None
    subsets_checked: int
    exhaustive: bool

    @property
    def fully_complete(self) -> bool:
        return self.meet_complete and self.join_complete and self.atomic


# ---------------------------------------------------------------------------
# Order helpers
# ---------------------------------------------------------------------------


def _glb(alg: FiniteAlgebra, subset_mask: int, within: int | None = None) -> int | None:
    """Greatest lower bound of a nonempty subset, decided order-theoretically
    among the elements of ``within`` (default: all elements)."""
    lower = alg.all_mask if within is None else within
    for s in mask_iter(subset_mask):
        lower &= alg.down_masks[s]
    for g in mask_iter(lower):
        if lower & ~alg.down_masks[g] == 0:
            return g
    return None


def _lub(alg: FiniteAlgebra, subset_mask: int, within: int | None = None) -> int | None:
    """Least upper bound of a subset among the elements of ``within``
    (default: all elements); the empty subset yields the least one."""
    upper = alg.all_mask if within is None else within
    for s in mask_iter(subset_mask):
        upper &= alg.up_masks[s]
    for u in mask_iter(upper):
        if upper & ~alg.up_masks[u] == 0:
            return u
    return None


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


def is_atomic(alg: FiniteAlgebra) -> bool:
    """Every nonzero element bounds an atom (always true at finite sizes)."""
    atom_mask = mask_of(alg.order_atoms())
    return all(
        alg.down_masks[e] & atom_mask
        for e in range(alg.size)
        if e != alg.zero
    )


def is_atomistic(alg: FiniteAlgebra) -> bool:
    """Every element is the least upper bound of the atoms below it."""
    atom_mask = mask_of(alg.order_atoms())
    for a in range(alg.size):
        below = alg.down_masks[a] & atom_mask
        if _lub(alg, below) != a:
            return False
    return True


# ---------------------------------------------------------------------------
# The representation constructions
# ---------------------------------------------------------------------------


def _maximal_filter_states(alg: FiniteAlgebra):
    family = enumerate_filters(alg)
    mf = sorted(family.maximal, key=lambda f: f.sort_key())
    classes = tuple(family.approx_class[family.index_of(f)] for f in mf)
    return "filter", tuple(f.sort_key() for f in mf), tuple(mask_of(f.members) for f in mf), classes


def _atom_states(alg: FiniteAlgebra):
    if not is_atomic(alg):
        raise NotAtomicError("the atom-based construction needs an atomic algebra")
    ats = atoms(alg)
    quot = domain_quotient(alg)
    return "atom", ats, tuple(alg.up_masks[x] for x in ats), tuple(quot.class_of[x] for x in ats)


def _build(alg: FiniteAlgebra, kind: str, provider, injective: bool) -> Representation:
    """Gate on the axioms, then build over the states ``provider(alg)``
    gives as (tag, labels, masks of the elements containing each state,
    class ids).  An element acts on equivalent states, sending each to
    the states containing it; the injective kind sends a tag per class
    instead, and is checked injective and coherent with the plain kind.
    """
    report = check_axioms(alg)
    if not report.passed:
        raise AxiomFailure(report)
    tag, labels, masks, cls = provider(alg)
    k = len(labels)
    # Functionality certificate: equivalent states sharing any element
    # coincide.
    for i in range(k):
        for j in range(k):
            if cls[i] == cls[j] and masks[i] & masks[j] and masks[i] != masks[j]:
                f, g = (Filter(alg, frozenset(mask_iter(m))) for m in (masks[i], masks[j]))
                raise InconsistencyError(
                    f"equivalent maximal filters {f.render()} and {g.render()} "
                    "share an element but differ"
                )
    theta = [
        {(i, j) for j in range(k) if masks[j] >> a & 1 for i in range(k) if cls[i] == cls[j]}
        for a in range(alg.size)
    ]
    if not injective:
        base = frozenset(range(k))
        return Representation(alg, kind, labels, tuple(PartialFunction(base, g) for g in theta))

    class_ids = sorted(set(cls))
    cpos = {c: i for i, c in enumerate(class_ids)}
    nc = len(class_ids)
    base = frozenset(range(nc + k))
    assignment = tuple(
        PartialFunction(base, {(cpos[cls[j]], nc + j) for j in range(k) if masks[j] >> a & 1})
        for a in range(alg.size)
    )
    for a, f in enumerate(assignment):
        if not is_injective_pf(f):
            raise InconsistencyError(
                f"injective construction produced a non-injective value for "
                f"{alg.element_name(a)}"
            )
        for i in range(k):
            for j in range(k):
                if ((i, j) in theta[a]) != ((cpos[cls[i]], nc + j) in f.graph):
                    raise InconsistencyError(
                        f"canonical/injective coherence fails at element "
                        f"{alg.element_name(a)}, states ({i}, {j})"
                    )
    tagged = tuple(("class", c) for c in class_ids) + tuple((tag, x) for x in labels)
    return Representation(alg, kind, tagged, assignment)


def canonical_theta(alg: FiniteAlgebra) -> Representation:
    """States are maximal filters; an element acts on equivalent filters
    containing it."""
    return _build(alg, "canonical-theta", _maximal_filter_states, injective=False)


def injective_eta(alg: FiniteAlgebra) -> Representation:
    """States are class tags plus maximal filters; values are injective."""
    return _build(alg, "injective-eta", _maximal_filter_states, injective=True)


def atomic_theta(alg: FiniteAlgebra) -> Representation:
    """States are atoms; an element acts on equivalent-domain atoms below it."""
    return _build(alg, "atomic-theta", _atom_states, injective=False)


def atomic_eta(alg: FiniteAlgebra) -> Representation:
    """States are atom classes plus atoms; values are injective."""
    return _build(alg, "atomic-eta", _atom_states, injective=True)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_representation(rep: Representation) -> VerificationReport:
    """Independently check a representation-shaped object.

    Verifies functionality of every value, injectivity of the
    assignment, one base for all values, and preservation of both
    operations on all pairs, on pair masks.  On a pass the report
    carries the image algebra, which derives both tables again.
    """
    alg = rep.source
    failures: list[VerificationFailure] = []
    if len(rep.assignment) != alg.size:
        failures.append(
            VerificationFailure("assignment-size", (len(rep.assignment), alg.size))
        )
        return VerificationReport(False, tuple(failures), None)

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
        return VerificationReport(False, tuple(failures), None)

    _, masks, doms, _ = _pair_masks([f.graph for f in rep.assignment])
    for a in range(alg.size):
        for b in range(alg.size):
            if masks[alg.minus[a][b]] != masks[a] & ~masks[b]:
                failures.append(VerificationFailure("minus-preserved", (a, b)))
            if masks[alg.restrict[a][b]] != masks[b] & doms[a]:
                failures.append(VerificationFailure("restrict-preserved", (a, b)))

    if failures:
        return VerificationReport(False, tuple(failures), None)
    image = ConcreteAlgebra(rep.assignment[0].base, rep.assignment, alg)
    return VerificationReport(True, (), image)


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------

SUBSET_CAP_DEFAULT = 20
SAMPLE_COUNT_DEFAULT = 10_000


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
    rep: Representation,
    subset_cap: int = SUBSET_CAP_DEFAULT,
    samples: int = SAMPLE_COUNT_DEFAULT,
    seed: int = 0,
) -> CompletenessReport:
    """Decide exactly whether h, the assignment, turns every existing meet
    into an intersection and every existing join into a union, and
    whether the algebra is atomic for it.

    Raises ``InconsistencyError`` unless the element order is a partial
    order.  Let holders(p) be the elements whose graph holds the pair p.
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
    share them, so each is decided once.  The report is always
    exhaustive: ``subset_cap``, ``samples`` and ``seed`` bounded the
    former subset scan and no longer change the result.
    """
    alg = rep.source
    _check_partial_order(alg)
    n, down, up = alg.size, alg.down_masks, alg.up_masks
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
    bounds: dict[tuple, int | None] = {}
    checked = 0
    for w in range(n):
        for held, count in holders.items():
            if held >> w & 1:
                bound, bound_set = _lub, down[w] & ~held
            elif held & up[w]:
                bound, bound_set = _glb, held & up[w]
            else:
                continue
            checked += count
            if (bound, bound_set) not in bounds:
                bounds[bound, bound_set] = bound(alg, bound_set)
            if bounds[bound, bound_set] == w and witness[bound] is None:
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
        True,
    )


# ---------------------------------------------------------------------------
# Homomorphism restriction to downsets
# ---------------------------------------------------------------------------


def _map_preserves(
    bound: Callable[..., int | None],
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    h: Sequence[int],
    masks,
    within: tuple[int | None, int | None] = (None, None),
) -> bool:
    """Whether ``h`` sends the ``bound`` (``_glb`` or ``_lub``) of every
    subset in ``masks`` that has one to the bound of the subset's image,
    bounds taken among the source and target elements of ``within``."""
    for mask in masks:
        w = bound(source, mask, within[0])
        if w is None:
            continue
        image = mask_of(h[s] for s in mask_iter(mask))
        if bound(target, image, within[1]) != h[w]:
            return False
    return True


def _submasks(mask: int):
    """The nonempty submasks of ``mask``."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def verify_hom_restriction(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    h: Sequence[int],
    a: int,
    subset_cap: int = SUBSET_CAP_DEFAULT,
) -> bool:
    """Check that a homomorphism restricts to a Boolean homomorphism
    of downsets, completely so whenever the map itself is complete.

    Raises if ``h`` is not a homomorphism; otherwise returns whether all
    restriction checks succeed.  Completeness of the map is decided by a
    full subset scan and therefore only attempted up to the subset cap.
    """
    if len(h) != source.size:
        raise NonHomomorphismError(f"mapping has {len(h)} entries, expected {source.size}")
    for v in h:
        if not 0 <= v < target.size:
            raise NonHomomorphismError(f"mapping value {v} is not a target element")
    for x in range(source.size):
        for y in range(source.size):
            if h[source.minus[x][y]] != target.minus[h[x]][h[y]]:
                raise NonHomomorphismError(
                    f"complement not preserved at ({x}, {y})"
                )
            if h[source.restrict[x][y]] != target.restrict[h[x]][h[y]]:
                raise NonHomomorphismError(
                    f"restriction not preserved at ({x}, {y})"
                )

    b1 = boolean_downset(source, a)
    b2 = boolean_downset(target, h[a])
    members2 = set(b2.members)
    if any(h[b] not in members2 for b in b1.members):
        return False
    for b in b1.members:
        if h[b1.complement_of(b)] != b2.complement_of(h[b]):
            return False
        for c in b1.members:
            if h[source.meet(b, c)] != target.meet(h[b], h[c]):
                return False
            if h[b1.join(b, c)] != b2.join(h[b], h[c]):
                return False
    if h[source.zero] != target.zero:
        return False

    if source.size > subset_cap:
        return True
    masks = range(1 << source.size)
    complete = _map_preserves(_glb, source, target, h, masks[1:]) or _map_preserves(
        _lub, source, target, h, masks
    )
    if not complete or len(b1.members) > subset_cap:
        return True
    within = (mask_of(b1.members), mask_of(b2.members))
    return all(
        _map_preserves(bound, source, target, h, _submasks(within[0]), within)
        for bound in (_glb, _lub)
    )
