"""Paper lemmas that the tests check, and the N1 fixture builder.

Nothing in the library calls these: they check side results of the
paper (the filter lemmas, maximality, the ultrafilters of a Boolean
downset, the quotient, homomorphisms restricted to downsets,
subtraction rebuilt from Boolean downsets, atomicity and
atomisticity), re-evaluate single law instances, scan the
complement-only laws on a bare minus table, relabel tables, label minus
tables and algebras by brute force, collect the minus tables the model
enumerator completes, enumerate partial functions, and close arbitrary
relations, which is how the non-functional fixture N1 gets its tables.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from diffrest import (
    AlgebraError,
    BooleanDownset,
    BooleanLawError,
    BudgetExceededError,
    Filter,
    FiniteAlgebra,
    InconsistencyError,
    PartialFunction,
    SearchBudget,
    boolean_downset,
    domain_quotient,
    enumerate_axiom_models,
    enumerate_filters,
    oracle,
)
from diffrest.algebra import (
    AxiomReport,
    LAW_TABLE,
    Law,
    LawTables,
    SIZE_CAP,
    SUBTRACTION_LAWS,
    Table,
    Term,
    _boolean_law_failure,
    _freeze_table,
    _scan_laws,
    mask_iter,
    mask_of,
)
from diffrest.pfun import _close_masks, _graphs_of, _tables_of


class ImproperFilterError(AlgebraError):
    """An operation needing a proper filter was given the full filter."""


class NonHomomorphismError(AlgebraError):
    """A mapping offered as a homomorphism fails to preserve an operation."""


# ---------------------------------------------------------------------------
# Relations, partial functions and single law instances
# ---------------------------------------------------------------------------


def close_graphs(seeds: Sequence[frozenset], cap: int = SIZE_CAP) -> list[frozenset]:
    """The closure of ``seeds``, as graphs in discovery order."""
    pairs, masks, _ = _close_masks(seeds, cap)
    return _graphs_of(pairs, masks)


def close_relations(
    base: Iterable[int], graphs: Sequence[Iterable[tuple[int, int]]]
) -> tuple[FiniteAlgebra, tuple[frozenset[tuple[int, int]], ...]]:
    """Close a nonempty list of relations on the points of ``base`` (not
    checked) set-theoretically, and tabulate them.

    Functionality is never assumed: this is how non-functional inputs
    are turned into tables so the law checker can report on them.
    """
    pairs, masks, doms = _close_masks([frozenset(g) for g in graphs])
    alg = FiniteAlgebra.from_tables(*_tables_of(masks, doms))
    return alg, tuple(_graphs_of(pairs, masks))


def enumerate_pfuns(
    base_size: int, budget: SearchBudget | None = None
) -> tuple[PartialFunction, ...]:
    """All partial functions on the points 1..k, ordered by their value
    vectors with "undefined" (0) first.

    The count is (k+1)^k, so the budget caps k (4 by default).
    """
    limit = budget.max_base_size if budget is not None else 4
    if not 0 <= base_size <= limit:
        raise BudgetExceededError(f"base size {base_size} outside the budget limit {limit}")
    points = range(1, base_size + 1)
    return tuple(
        PartialFunction(points, [(x, v) for x, v in zip(points, values) if v])
        for values in itertools.product(range(base_size + 1), repeat=base_size)
    )


def relabel_table(table: Sequence[Sequence[int]], sigma: Sequence[int]) -> list[list[int]]:
    """``table`` with element ``a`` renamed ``sigma[a]``."""
    inv = sorted(range(len(table)), key=sigma.__getitem__)
    return [[sigma[table[x][y]] for y in inv] for x in inv]


def relabel(alg: FiniteAlgebra, sigma: Sequence[int]) -> FiniteAlgebra:
    """The tables of ``alg`` with element ``a`` renamed ``sigma[a]``."""
    return FiniteAlgebra.from_tables(*(relabel_table(t, sigma) for t in (alg.minus, alg.restrict)))


def reference_canonical_form(alg: FiniteAlgebra) -> str:
    """Minimal table serialization over all (n-1)! relabelings sending
    bottom to 0: equal forms exactly for isomorphic algebras."""
    n = alg.size
    rest = [e for e in range(n) if e != alg.zero]
    best: str | None = None
    for perm in itertools.permutations(rest):
        sigma = [0] * n
        sigma[alg.zero] = 0
        for new_minus_one, old in enumerate(perm):
            sigma[old] = new_minus_one + 1
        inv = [0] * n
        for old, new in enumerate(sigma):
            inv[new] = old
        rows = []
        for table in (alg.minus, alg.restrict):
            for i in range(n):
                rows.append(
                    ",".join(str(sigma[table[inv[i]][inv[j]]]) for j in range(n))
                )
        form = f"n={n};" + ";".join(rows)
        if best is None or form < best:
            best = form
    return best


def minus_form(zero: int, minus: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The least relabeled minus table over all (n-1)! relabelings that
    send ``zero`` to 0: equal forms exactly for isomorphic minus tables."""
    rest = [a for a in range(len(minus)) if a != zero]
    best = None
    for perm in itertools.permutations(rest):
        inv = (zero, *perm)  # the element that gets each new id
        sigma = {old: new for new, old in enumerate(inv)}
        form = tuple(tuple(sigma[minus[x][y]] for y in inv) for x in inv)
        if best is None or form < best:
            best = form
    return best


def minus_tables_reached(monkeypatch, n: int):
    """The model catalog of size ``n``, then every complete minus table
    its search reached, in search order."""
    minus_tables, fill = [], oracle._fill_cells

    def spy_fill(table, free, check, cuts, counter, limit, complete):
        if not minus_tables:  # the minus stage: the restrict stages run once it reaches a table
            def reached():
                minus_tables.append([list(row) for row in table])
                complete()

            return fill(table, free, check, cuts, counter, limit, reached)
        return fill(table, free, check, cuts, counter, limit, complete)

    monkeypatch.setattr(oracle, "_fill_cells", spy_fill)
    catalog = enumerate_axiom_models(n)
    monkeypatch.setattr(oracle, "_fill_cells", fill)
    return catalog, minus_tables


def evaluate_law(alg: FiniteAlgebra, law: str | Law, assignment: Sequence[int]) -> bool:
    """Re-evaluate a single law instance, named or given, against the tables."""
    entry, t = LAW_TABLE[law] if isinstance(law, str) else law, alg.tables
    env = {"0": t.zero, **dict(zip(entry.varnames, assignment))}

    def value(term: Term) -> int:
        if isinstance(term, str):
            return env[term]
        return t[term[0]][value(term[1])][value(term[2])]

    def leq(x: int, y: int) -> bool:
        return y in t.up_lists[x]

    if not all(leq(env[x], env[y]) for x, y in entry.antecedents):
        return True
    lhs, rhs = value(entry.lhs), value(entry.rhs)
    return lhs == rhs if entry.relation == "=" else leq(lhs, rhs)


def check_subtraction_axioms(minus: Sequence[Sequence[int]]) -> AxiomReport:
    """The three complement-only laws on a bare minus table, scanned as
    ``domain_quotient`` scans its quotient's table.  The table is not
    validated."""
    return _scan_laws(LawTables(_freeze_table(minus)), SUBTRACTION_LAWS)


# ---------------------------------------------------------------------------
# Subtraction rebuilt from a complemented semilattice
# ---------------------------------------------------------------------------


class ComplementedSemilattice(NamedTuple):
    """A meet table plus, for every element, a complement on its downset.

    ``complement[a][b]`` is consulted only when ``b`` lies below ``a`` in
    the meet order; other entries are ignored.
    """

    size: int
    meet: Table
    complement: Table

    @classmethod
    def from_tables(cls, meet, complement) -> "ComplementedSemilattice":
        return cls(len(meet), _freeze_table(meet), _freeze_table(complement))


def complemented_semilattice_of(alg: FiniteAlgebra) -> ComplementedSemilattice:
    """Extract the meet table and per-downset complements of an algebra."""
    meet = _freeze_table([[alg.meet(a, b) for b in range(alg.size)] for a in range(alg.size)])
    return ComplementedSemilattice(alg.size, meet, alg.minus)


def subtraction_from_boolean_downsets(sl: ComplementedSemilattice) -> Table:
    """Recover a complement operation from downset complements.

    Checks that every downset of the meet semilattice, which has a
    bottom, is Boolean under the supplied complements, then returns the
    table ``a - b := complement_a(a meet b)``.  The tests compare it with
    the minus table the complements were read from.
    """
    n = sl.size
    mt = sl.meet
    bottom = next(z for z in range(n) if all(mt[z][a] == z for a in range(n)))
    for a in range(n):
        members = [b for b in range(n) if mt[b][a] == b]
        downs = [mask_of(c for c in members if mt[c][b] == c) for b in members]
        failure = _boolean_law_failure(mt, sl.complement[a], a, bottom, members, downs)
        if failure is not None:
            law, witness = failure
            raise BooleanLawError(
                f"downset of {a} is not Boolean: law {law} fails at {witness}", a, law, witness
            )

    return tuple(tuple(sl.complement[a][mt[a][b]] for b in range(n)) for a in range(n))


# ---------------------------------------------------------------------------
# Filters: meets, maximal extensions, the quotient, restriction
# ---------------------------------------------------------------------------


def generator(f: Filter) -> int:
    """The least element of the filter in the element order."""
    meet, g = f.parent.tables["meet"], None
    for a in mask_iter(f.members):
        if g is None or meet[a][g] == a:
            g = a
    return g


def is_maximal(f: Filter) -> bool:
    """A filter with least member ``w`` is maximal precisely when it is
    proper and for every ``b`` exactly one of ``w meet b`` and ``w - b``
    belongs to it."""
    w, members = generator(f), f.members
    # zip stops at the n entries of the minus row, before the meet row's padding.
    rows = zip(f.parent.tables["meet"][w], f.parent.minus[w])
    return f.proper and all(members >> m & 1 != members >> d & 1 for m, d in rows)


def downset_atoms(ds: BooleanDownset) -> tuple[int, ...]:
    """The atoms of the downset, in increasing id order."""
    down, zero = ds.parent.down_masks, ds.parent.zero
    return tuple(
        b for b in ds.members if b != zero and down[b] & down[ds.top] == 1 << b | 1 << zero
    )


def ultrafilters(ds: BooleanDownset) -> tuple[int, ...]:
    """Maximal proper filters of the downset, one mask per atom."""
    alg = ds.parent
    return tuple(alg.up_masks[x] & alg.down_masks[ds.top] for x in downset_atoms(ds))


def _product_upset(alg: FiniteAlgebra, left: int, right: int) -> int:
    """Upward closure of all restrictions of ``right`` members by ``left``
    members, all three as masks."""
    products = mask_of(alg.restrict[s][t] for s in mask_iter(left) for t in mask_iter(right))
    return alg.up_closure(products)


def domhat_pair(alg: FiniteAlgebra, f: Filter, g: Filter) -> bool:
    """Lifted domain preorder: F below G iff restricting F by G stays in F."""
    return not _product_upset(alg, g.members, f.members) & ~f.members


def filter_meet(f: Filter, g: Filter) -> Filter:
    """Greatest lower bound of two filters modulo the lifted equivalence."""
    alg = f.parent
    h = Filter(alg, _product_upset(alg, g.members, f.members))
    if not (domhat_pair(alg, h, f) and domhat_pair(alg, h, g)):
        raise InconsistencyError("filter meet is not a lower bound")
    for k in enumerate_filters(alg).all_filters:
        if domhat_pair(alg, k, f) and domhat_pair(alg, k, g) and not domhat_pair(alg, k, h):
            raise InconsistencyError(
                f"filter meet is not greatest below {k.render()}"
            )
    return h


def extend_to_maximal(f: Filter) -> Filter:
    """Deterministically extend a proper filter to a maximal one.

    Policy: take the least member id as witness, then the
    lexicographically least ultrafilter of its downset extending the
    trace of the filter there.
    """
    if not f.proper:
        raise ImproperFilterError("the full filter has no maximal extension")
    alg = f.parent
    a = next(mask_iter(f.members))
    downset = boolean_downset(alg, a)
    trace = f.members & alg.down_masks[a]
    candidates = [
        nu for nu in ultrafilters(downset) if not trace & ~nu
    ]
    if not candidates:
        raise InconsistencyError(
            f"no ultrafilter of the downset of {alg.element_name(a)} extends the filter"
        )
    nu = min(candidates, key=lambda m: list(mask_iter(m)))
    result = Filter(alg, alg.up_closure(nu))
    if not is_maximal(result) or f.members & ~result.members:
        raise InconsistencyError("extension policy produced a non-extension")
    return result


def _quotient_upset(quot, members: int) -> frozenset[int]:
    """The classes above the class of some member of the mask ``members``."""
    classes = {quot.class_of[a] for a in mask_iter(members)}
    return frozenset(d for c in classes for d in range(quot.n_classes) if quot.meet[c][d] == c)


def project_filter(f: Filter) -> frozenset[int]:
    """Image of a filter in the domain quotient, upward closed there.

    Checks the characterization of the lifted preorder: F is below G
    exactly when the projected upset of G is contained in that of F.
    """
    alg = f.parent
    quot = domain_quotient(alg)
    image = _quotient_upset(quot, f.members)
    for g in enumerate_filters(alg).all_filters:
        if domhat_pair(alg, f, g) != (_quotient_upset(quot, g.members) <= image):
            raise InconsistencyError(
                f"projection mischaracterizes the lifted preorder against {g.render()}"
            )
    return image


def _quotient_filter_is_maximal(quot, image: frozenset[int]) -> bool:
    """The single-witness criterion of ``is_maximal``, in the quotient."""
    w = next(c for c in image if all(quot.meet[c][d] == c for d in image))
    return quot.class_of[quot.parent.zero] not in image and all(
        (quot.meet[w][b] in image) != (quot.qminus[w][b] in image)
        for b in range(quot.n_classes)
    )


def filter_down(mu: Filter) -> frozenset[int]:
    """Project a maximal filter to the quotient; the image must be maximal."""
    quot = domain_quotient(mu.parent)
    image = _quotient_upset(quot, mu.members)
    if not _quotient_filter_is_maximal(quot, image):
        raise InconsistencyError("projected maximal filter is not maximal in the quotient")
    return image


def filter_up_check(mu: Filter, f: Filter) -> str:
    """Restrict a filter by a maximal filter ``mu`` and classify the outcome.

    Returns ``"proper-and-maximal"`` or ``"improper"``.  Properness is
    checked to be equivalent to the maximal filter being domain-below
    the other filter, and in the proper case the result is checked to
    be maximal and equivalent to the maximal filter.
    """
    alg = mu.parent
    members = _product_upset(alg, mu.members, f.members)
    below = domhat_pair(alg, mu, f)
    if (not members >> alg.zero & 1) != below:
        raise InconsistencyError(
            "the restriction is proper but the maximal filter is not domain-below, "
            "or the other way round"
        )
    if not below:
        return "improper"
    result = Filter(alg, members)
    if not is_maximal(result):
        raise InconsistencyError("proper restriction of a maximal filter is not maximal")
    if not (domhat_pair(alg, mu, result) and domhat_pair(alg, result, mu)):
        raise InconsistencyError("proper restriction is not equivalent to the maximal filter")
    return "proper-and-maximal"


# ---------------------------------------------------------------------------
# Order bounds: atomicity, atomisticity and homomorphisms restricted to downsets
# ---------------------------------------------------------------------------


def _bound_within(cones: Sequence[int], subset_mask: int, within: int) -> int | None:
    """The greatest lower bound of a subset among the elements of
    ``within`` when ``cones`` are the down-sets, the least upper bound
    when they are the up-sets; None when there is none."""
    common = within
    for s in mask_iter(subset_mask):
        common &= cones[s]
    return next((g for g in mask_iter(common) if not common & ~cones[g]), None)


def is_atomic(alg: FiniteAlgebra) -> bool:
    """Every nonzero element bounds an atom (always true at finite sizes)."""
    atom_mask = mask_of(alg.order_atoms())
    return all(alg.down_masks[e] & atom_mask for e in range(alg.size) if e != alg.zero)


def is_atomistic(alg: FiniteAlgebra) -> bool:
    """Every element is the least upper bound of the atoms below it."""
    atom_mask = mask_of(alg.order_atoms())
    return all(
        _bound_within(alg.up_masks, alg.down_masks[a] & atom_mask, alg.all_mask) == a
        for a in range(alg.size)
    )


def verify_hom_restriction(
    source: FiniteAlgebra, target: FiniteAlgebra, h: Sequence[int], a: int
) -> bool:
    """Check that a homomorphism restricts to a Boolean homomorphism
    of downsets, completely so whenever the map itself is complete.

    Raises if ``h`` is not a homomorphism; otherwise returns whether all
    restriction checks succeed.  Completeness of the map is decided by a
    full subset scan, so this is for small algebras only.
    """
    def preserves(cones: str, masks, within: tuple[int, int]) -> bool:
        """Whether h sends the bound (``cones`` names the down-sets for a
        glb, the up-sets for a lub) of every subset in ``masks`` that has
        one to the bound of the subset's image, bounds taken among the
        source and target elements of ``within``."""
        for mask in masks:
            w = _bound_within(getattr(source, cones), mask, within[0])
            image = mask_of(h[s] for s in mask_iter(mask))
            if w is not None and _bound_within(getattr(target, cones), image, within[1]) != h[w]:
                return False
        return True

    for x in range(source.size):
        for y in range(source.size):
            if h[source.minus[x][y]] != target.minus[h[x]][h[y]]:
                raise NonHomomorphismError(f"complement not preserved at ({x}, {y})")
            if h[source.restrict[x][y]] != target.restrict[h[x]][h[y]]:
                raise NonHomomorphismError(f"restriction not preserved at ({x}, {y})")

    # Complement, meet, join and bottom of a downset are terms in minus
    # (a - b, b - (b - c), a - ((a - b) & (a - c)) and a - a), so h
    # preserves them once it preserves minus; what is left to check is
    # that h maps the one downset into the other.
    b1 = boolean_downset(source, a)
    b2 = boolean_downset(target, h[a])
    if any(h[b] not in b2.members for b in b1.members):
        return False

    subsets = range(1 << source.size)
    whole = (source.all_mask, target.all_mask)
    if not (preserves("down_masks", subsets[1:], whole) or preserves("up_masks", subsets, whole)):
        return True
    within = (mask_of(b1.members), mask_of(b2.members))
    below = [m for m in subsets[1:] if not m & ~within[0]]
    return preserves("down_masks", below, within) and preserves("up_masks", below, within)
