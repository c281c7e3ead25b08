"""Representations of finite algebras by concrete partial functions.

Four constructions are provided: the canonical one over maximal
filters, its injective refinement over equivalence classes of maximal
filters, and the two atom-based complete versions.  A verifier checks
any representation-shaped object independently, and a completeness
report decides whether existing meets and joins are turned into
intersections and unions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
)
from .filters import Filter, enumerate_filters
from .pfun import ConcreteAlgebra, PartialFunction, is_injective_pf


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
    assignment, and preservation of both operations on all pairs.  On a
    pass the report carries the concrete image algebra as a certificate.
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

    for a in range(alg.size):
        for b in range(alg.size):
            want = rep.assignment[alg.minus[a][b]].graph
            got = rep.assignment[a].graph - rep.assignment[b].graph
            if want != got:
                failures.append(VerificationFailure("minus-preserved", (a, b)))
            dom = rep.assignment[a].domain
            want_r = rep.assignment[alg.restrict[a][b]].graph
            got_r = frozenset(p for p in rep.assignment[b].graph if p[0] in dom)
            if want_r != got_r:
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


def _subset_masks(n: int, cap: int, samples: int, seed: int) -> tuple[Iterable[int], bool]:
    if n <= cap:
        return range(1 << n), True
    picked = {0, (1 << n) - 1}
    for i in range(n):
        picked.add(1 << i)
        for j in range(i + 1, n):
            picked.add((1 << i) | (1 << j))
    rng = random.Random(seed)
    for _ in range(samples):
        picked.add(rng.getrandbits(n))
    return sorted(picked), False


def _fold_tables(alg: FiniteAlgebra, graphs: Sequence[int]) -> list[list[tuple]]:
    """One table per chunk of 8 element ids, indexed by the subsets of
    the chunk: (AND of down masks, AND of up masks, AND of graphs, OR of
    graphs), each entry folded from the one without its lowest bit."""
    down, up, everything = alg.down_masks, alg.up_masks, alg.all_mask
    tables = []
    for base in range(0, alg.size, 8):
        table = [(everything, everything, -1, 0)]
        for m in range(1, 1 << min(8, alg.size - base)):
            low = m & -m
            e = base + low.bit_length() - 1
            d, u, a, o = table[m ^ low]
            g = graphs[e]
            table.append((d & down[e], u & up[e], a & g, o | g))
        tables.append(table)
    return tables


def completeness_report(
    rep: Representation,
    subset_cap: int = SUBSET_CAP_DEFAULT,
    samples: int = SAMPLE_COUNT_DEFAULT,
    seed: int = 0,
) -> CompletenessReport:
    """Check meet completeness, join completeness, and atomicity.

    Existing meets and joins are found order-theoretically.  Below the
    subset cap every subset is scanned; above it, all singletons and
    pairs plus seeded random subsets are used and the report says so.
    Graphs are bitmasks over the pairs the representation uses, and a
    subset's bounds, intersection and union are read from per-8-element
    fold tables, so each subset costs one lookup per 8 elements.  The
    subsets are streamed, not listed, so memory does not grow with the
    cap: it holds the tables and one bound per distinct bound set.
    """
    alg = rep.source
    n = alg.size
    masks, exhaustive = _subset_masks(n, subset_cap, samples, seed)
    bit: dict[tuple[int, int], int] = {}
    graphs = []
    for f in rep.assignment:
        g = 0
        for pair in f.graph:
            g |= 1 << bit.setdefault(pair, len(bit))
        graphs.append(g)
    first, *rest = _fold_tables(alg, graphs)
    # A subset's glb depends only on its lower bounds, its lub only on
    # its upper bounds.
    glbs: dict[int, int | None] = {}
    lubs: dict[int, int | None] = {}
    checked = 0

    meet_ok, meet_witness = True, None
    join_ok, join_witness = True, None
    for mask in masks:
        lower, upper, inter, union = first[mask & 255]
        high = mask >> 8
        for table in rest:
            d, u, a, o = table[high & 255]
            lower &= d
            upper &= u
            inter &= a
            union |= o
            high >>= 8
        if mask:
            w = glbs.get(lower, -1)
            if w == -1:
                w = glbs[lower] = _glb(alg, 0, lower)
            if w is not None:
                checked += 1
                if inter != graphs[w] and meet_ok:
                    meet_ok, meet_witness = False, frozenset(mask_iter(mask))
        w = lubs.get(upper, -1)
        if w == -1:
            w = lubs[upper] = _lub(alg, 0, upper)
        if w is not None:
            checked += 1
            if union != graphs[w] and join_ok:
                join_ok, join_witness = False, frozenset(mask_iter(mask))

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
        meet_ok,
        meet_witness,
        join_ok,
        join_witness,
        atomic_ok,
        atomic_witness,
        checked,
        exhaustive,
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
    for b in b1.members:
        if h[b] not in members2:
            return False
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
