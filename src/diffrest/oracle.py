"""Independent brute-force machinery.

Three oracles: exhaustive enumeration of partial functions on tiny
bases, an exhaustive embedding search deciding whether an abstract
algebra is isomorphic to an algebra of partial functions at all, and an
exhaustive model enumerator for the defining laws with isomorph
rejection.  A differential driver cross-checks the law checker against
the embedding search on whole corpora.

The embedding search works point by point.  The trace of a base point
assigns to every algebra element either "undefined" or a value point;
traces are locally constrained by the two pointwise operation rules and
are fully determined by their values on a generating set.  Which
elements the first k generators determine depends only on the tables,
so a propagation plan is built once per search: per generator, the
steps that derive each newly determined element from two known ones,
and the remaining equations to check.  The search assigns one generator
at a time and prunes the prefix at the first clash.  The plan only
compares values, so the points are interchangeable: one trace per
equality pattern is searched and its relabelings are counted and
listed.  A second search covers the injectivity requirements with the
traces.  A representation on fewer points extends to one on more points
by padding the base, so exhausting the maximum base size decides
non-representability up to that size.  The search prunes only with the
tables, never with the laws or the filter theory it cross-checks.

The model enumerator fills the minus table cell by cell and then, for
each complete minus table, the restrict table.  After each cell it
checks only the instances of the five laws that read that cell: every
other instance whose cells are all known was checked when its last
cell was filled, or at the stage's first node if all its cells were
seeded.  It prunes with the five laws alone, never with
derived laws or filter theory, since it is the oracle for the claim
that they follow.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

from .algebra import (
    SIZE_CAP,
    AlgebraError,
    AxiomReport,
    FiniteAlgebra,
    InconsistencyError,
    TableError,
    check_axioms,
    mask_iter,
)
from .pfun import PartialFunction
from .represent import Representation, verify_representation


class BudgetExceededError(AlgebraError):
    """A request falls outside the search budget."""


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the oracles.

    ``max_base_size`` may be zero (the empty base is a legitimate
    search target); ``node_limit`` bounds backtracking nodes and turns
    an exhausted budget into an explicit inconclusive verdict, never a
    silent miss.
    """

    max_base_size: int = 4
    max_algebra_size: int = SIZE_CAP
    node_limit: int = 2_000_000
    seed: int = 0

    def __post_init__(self):
        if self.max_base_size < 0:
            raise BudgetExceededError("max_base_size must be nonnegative")
        if self.max_algebra_size <= 0 or self.node_limit <= 0:
            raise BudgetExceededError("budget limits must be positive")


DEFAULT_BUDGET = SearchBudget()


class _NodeLimit(Exception):
    pass


# ---------------------------------------------------------------------------
# Exhaustive partial-function enumeration
# ---------------------------------------------------------------------------


def enumerate_pfuns(
    base_size: int, budget: SearchBudget | None = None
) -> tuple[PartialFunction, ...]:
    """All partial functions on a base of the given size, canonically ordered.

    The count is (k+1)^k, so the budget caps the base size (4 by
    default).  Points are 1-based; ordering is lexicographic in the
    per-point value vectors with "undefined" first.
    """
    limit = budget.max_base_size if budget is not None else 4
    if base_size < 0 or base_size > limit:
        raise BudgetExceededError(
            f"base size {base_size} outside the budget limit {limit}"
        )
    base = frozenset(range(1, base_size + 1))
    out = []
    for values in itertools.product(range(base_size + 1), repeat=base_size):
        graph = [
            (x, values[x - 1]) for x in range(1, base_size + 1) if values[x - 1] != 0
        ]
        out.append(PartialFunction(base, graph))
    return tuple(out)


# ---------------------------------------------------------------------------
# Embedding search
# ---------------------------------------------------------------------------


def generating_set(alg: FiniteAlgebra) -> tuple[int, ...]:
    """A small generating set, chosen greedily from the top of the order."""

    def closure(mask: int) -> int:
        while True:
            new = mask
            for x in mask_iter(mask):
                for y in mask_iter(mask):
                    new |= 1 << alg.minus[x][y]
                    new |= 1 << alg.restrict[x][y]
            if new == mask:
                return mask
            mask = new

    order = sorted(
        range(alg.size),
        key=lambda e: (-alg.down_masks[e].bit_count(), e),
    )
    chosen: list[int] = []
    closed = 0
    for e in order:
        if closed == alg.all_mask:
            break
        if closed >> e & 1:
            continue
        chosen.append(e)
        closed = closure(closed | 1 << e)
    return tuple(chosen)


@dataclass(frozen=True)
class EmbeddingResult:
    """The verdict of one embedding search.

    ``nodes`` counts every search node: one per generator value that the
    full trace enumeration tries, plus one per cover-search node.  Copies
    of a trace under relabeling of the points are counted but not visited.
    ``trace_nodes`` is the share spent enumerating traces.
    """

    verdict: str  # "found" | "none" | "inconclusive"
    assignment: tuple[PartialFunction, ...] | None
    base_size: int
    nodes: int
    trace_nodes: int
    seed: int

    @property
    def found(self) -> bool:
        return self.verdict == "found"


# The operation of a plan step (cell, op, a, b): tau[cell] = op(tau[a], tau[b]).
_MINUS, _RESTRICT = 0, 1


@dataclass(frozen=True)
class _PlanLevel:
    """What assigning one generator makes known and what it must satisfy.

    ``free`` is false when the generator is already known from earlier
    generators; its value is then a check, not a choice.  ``derive``
    fills each newly known element from two known ones, in breadth-first
    order; ``checks`` are the remaining equations among known elements
    that involve a new one.
    """

    gen: int
    free: bool
    derive: tuple[tuple[int, int, int, int], ...]
    checks: tuple[tuple[int, int, int, int], ...]


def _propagation_plan(alg: FiniteAlgebra, gens: Sequence[int]) -> tuple[_PlanLevel, ...]:
    """Per generator, the derivations and checks that follow from its value.

    Which elements become known depends only on the tables, not on the
    values chosen, so the plan is built once per search.  Every equation
    tau[op(a, b)] = op(tau[a], tau[b]) among the elements is either a
    derivation or a check at exactly one level.
    """
    n = alg.size
    tables = (alg.minus, alg.restrict)
    known: list[int] = []
    is_known = [False] * n
    levels = []
    for g in gens:
        free = not is_known[g]
        start = len(known)
        if free:
            is_known[g] = True
            known.append(g)
        derive, checks = [], []
        qi = start
        while qi < len(known):
            e = known[qi]
            qi += 1
            for x in known[:qi]:
                for a, b in ((e, x), (x, e)) if x != e else ((e, e),):
                    for op in (_MINUS, _RESTRICT):
                        cell = tables[op][a][b]
                        if is_known[cell]:
                            checks.append((cell, op, a, b))
                        else:
                            is_known[cell] = True
                            known.append(cell)
                            derive.append((cell, op, a, b))
        levels.append(_PlanLevel(g, free, tuple(derive), tuple(checks)))
    if len(known) < n:
        raise InconsistencyError("generating set failed to reach every element")
    return tuple(levels)


def _valid_columns(
    alg: FiniteAlgebra, gens: Sequence[int], m: int, counter: list[int], limit: int
) -> list[tuple[int, ...]]:
    """The columns of ``_columns_and_masks``: every consistent trace on
    ``m`` points, relabeled copies counted and listed but not searched."""
    return _columns_and_masks(alg, gens, m, counter, limit)[0]


def _columns_and_masks(
    alg: FiniteAlgebra, gens: Sequence[int], m: int, counter: list[int], limit: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Consistent point traces (element -> 0 or a value) and their masks.

    Generators are assigned one at a time through the plan, and a clash
    prunes the prefix.  The plan only compares values with each other and
    with 0, so permuting the points 1..m keeps prefixes consistent: the
    symmetry comes from the tables, not from the laws.  A free generator
    tries 0, the values in use and one fresh value, so one canonical trace
    per equality pattern is searched; ``counter`` still counts every value
    the full search tries.  The traces come out as all relabelings of the
    canonical ones, in lexicographic order of the generator values, and
    share the canonical trace's mask, since a relabeling separates the
    same pairs.
    """
    plan = _propagation_plan(alg, gens)
    tau = [0] * alg.size
    traces: list[tuple[int, ...]] = []

    def assign(k: int, used: int, copies: int) -> None:
        # The prefix uses the values 1..used and stands for ``copies``
        # relabeled prefixes, all of which the full search visits.
        if k == len(plan):
            traces.append(tuple(tau))
            return
        counter[0] += copies * (m + 1)
        if counter[0] > limit:
            counter[0] = limit + 1
            raise _NodeLimit
        level = plan[k]
        g, derive, checks = level.gen, level.derive, level.checks
        # A generator determined by earlier ones keeps its value.
        for v in range(min(used + 1, m) + 1) if level.free else (tau[g],):
            tau[g] = v
            for cell, op, a, b in derive:
                ta = tau[a]
                if op:
                    tau[cell] = tau[b] if ta else 0
                else:
                    tau[cell] = ta if ta and tau[b] != ta else 0
            for cell, op, a, b in checks:
                ta = tau[a]
                if op:
                    if tau[cell] != (tau[b] if ta else 0):
                        break
                elif tau[cell] != (ta if ta and tau[b] != ta else 0):
                    break
            else:
                if v <= used:
                    assign(k + 1, used, copies)
                else:
                    assign(k + 1, v, copies * (m - used))

    assign(0, 0, 1)
    trace_masks = _separation_masks(traces, alg.size, m)
    points = range(1, m + 1)
    relabeled = [
        (tuple([sigma[v] for v in trace]), mask)
        for trace, mask in zip(traces, trace_masks)
        for sigma in map((0,).__add__, itertools.permutations(points, max(trace)))
    ]
    by_gens = operator.itemgetter(*gens)
    relabeled.sort(key=lambda pair: by_gens(pair[0]))
    return [col for col, _ in relabeled], [mask for _, mask in relabeled]


def _separation_masks(columns: list[tuple[int, ...]], n: int, m: int) -> list[int]:
    """Per column, a bit for each pair i < j it separates (col[i] != col[j]).

    Pairs are numbered row by row, so the pairs (i, j) with j > i fill one
    contiguous block of bits and a whole row is one shift of the
    complement of i's value class.
    """
    offsets = [i * n - i * (i + 1) // 2 for i in range(n)]
    rows = [(1 << (n - i - 1)) - 1 for i in range(n)]
    masks = []
    for col in columns:
        classes = [0] * (m + 1)
        for e, v in enumerate(col):
            classes[v] |= 1 << e
        mask = 0
        for i in range(n - 1):
            mask |= ((~classes[col[i]] >> (i + 1)) & rows[i]) << offsets[i]
        masks.append(mask)
    return masks


def brute_force_embedding(
    alg: FiniteAlgebra, budget: SearchBudget = DEFAULT_BUDGET
) -> EmbeddingResult:
    """Decide by exhaustive search whether the algebra embeds into an
    algebra of partial functions on at most ``max_base_size`` points.

    A found assignment is verified before being reported.  "none" means
    the search space at the maximum base size was exhausted, which by
    base padding rules out every smaller base as well.
    """
    n = alg.size
    if n > budget.max_algebra_size:
        raise BudgetExceededError(
            f"algebra size {n} exceeds the budget limit {budget.max_algebra_size}"
        )
    m = budget.max_base_size
    gens = generating_set(alg)
    counter = [0]
    all_pairs_mask = (1 << (n * (n - 1) // 2)) - 1

    try:
        columns, sep_masks = _columns_and_masks(
            alg, gens, m, counter, budget.node_limit
        )
    except _NodeLimit:
        return EmbeddingResult(
            "inconclusive", None, m, counter[0], counter[0], budget.seed
        )
    trace_nodes = counter[0]

    order = sorted(
        range(len(columns)), key=lambda ci: (-sep_masks[ci].bit_count(), columns[ci])
    )
    coverage = 0
    for ci in order:
        coverage |= sep_masks[ci]

    bot = tuple([0] * n)
    path: list[int] = []

    def build(found_path: list[int]) -> tuple[PartialFunction, ...]:
        cols = [columns[ci] for ci in found_path]
        cols += [bot] * (m - len(cols))
        base = frozenset(range(1, m + 1))
        assignment = []
        for a in range(n):
            graph = [
                (p + 1, cols[p][a]) for p in range(m) if cols[p][a] != 0
            ]
            assignment.append(PartialFunction(base, graph))
        return tuple(assignment)

    def dfs(depth: int, unseparated: int) -> list[int] | None:
        counter[0] += 1
        if counter[0] > budget.node_limit:
            raise _NodeLimit
        if unseparated == 0:
            return list(path)
        if depth == m or unseparated & ~coverage:
            return None
        for ci in order:
            new = sep_masks[ci] & unseparated
            if not new:
                continue
            path.append(ci)
            result = dfs(depth + 1, unseparated & ~sep_masks[ci])
            if result is not None:
                return result
            path.pop()
        return None

    try:
        solution = dfs(0, all_pairs_mask)
    except _NodeLimit:
        return EmbeddingResult(
            "inconclusive", None, m, counter[0], trace_nodes, budget.seed
        )

    if solution is None:
        return EmbeddingResult("none", None, m, counter[0], trace_nodes, budget.seed)

    assignment = build(solution)
    rep = Representation(alg, "external", tuple(range(1, m + 1)), assignment)
    report = verify_representation(rep)
    if not report.passed:
        raise InconsistencyError(
            f"search produced an assignment that fails verification: {report.failures[0]}"
        )
    return EmbeddingResult(
        "found", assignment, m, counter[0], trace_nodes, budget.seed
    )


# ---------------------------------------------------------------------------
# Exhaustive model enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelCatalog:
    size: int
    models: tuple[FiniteAlgebra, ...]
    exhaustive: bool
    nodes: int


def canonical_form(alg: FiniteAlgebra) -> str:
    """Minimal table serialization over relabelings sending bottom to 0.

    Two algebras are isomorphic exactly when their canonical forms
    coincide; cost grows factorially, so keep this to desk-scale sizes.
    """
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


def _minus_cell_ok(minus: list[list[int | None]], x: int, y: int) -> bool:
    """Whether every known Ax.1-Ax.3 instance that reads minus[x][y] holds.

    Instances with an unknown cell are skipped.  Those that read the
    cell as the outer minus[ab][c] of Ax.3 are left to
    ``_minus_outer_ok``.
    """
    v = minus[x][y]
    # Ax.1, a - (b - a) = a: (x, y) is (b, a), or it is (a, b - a).
    u = minus[y][v]
    if u is not None and u != y:
        return False
    if v != x:
        for row in minus:
            if row[x] == y:
                return False
    # Ax.2, a - (a - b) = b - (b - a), reads cells in rows a and b
    # only and is symmetric in a and b: a is x.
    row_x = minus[x]
    for b, row_b in enumerate(minus):
        ab = row_x[b]
        ba = row_b[x]
        if ab is None or ba is None:
            continue
        p = row_x[ab]
        q = row_b[ba]
        if p is not None and q is not None and p != q:
            return False
    # Ax.3, (a - b) - c = (a - c) - b, is symmetric in b and c: (x, y)
    # is (a, b).
    row_v = minus[v]
    for c, ac in enumerate(row_x):
        left = row_v[c]
        if left is None or ac is None:
            continue
        right = minus[ac][y]
        if right is not None and left != right:
            return False
    return _minus_outer_ok(minus, x, y)


def _minus_outer_ok(minus: list[list[int | None]], x: int, y: int) -> bool:
    """The Ax.3 instances (a, b, y) with minus[a][b] = x, found by one
    reverse lookup over the table."""
    v = minus[x][y]
    for row_a in minus:
        if x not in row_a:
            continue
        ac = row_a[y]
        if ac is None:
            continue
        row_ac = minus[ac]
        for b, ab in enumerate(row_a):
            if ab == x:
                right = row_ac[b]
                if right is not None and right != v:
                    return False
    return True


def _restrict_cell_ok(
    meet: list[list[int]], restrict: list[list[int | None]], x: int, y: int
) -> bool:
    """Whether every known Ax.4 or Ax.5 instance that reads restrict[x][y] holds.

    ``meet`` is the table of a - (a - b) over a complete minus table.
    Instances with an unknown cell are skipped.  Those that read the
    cell as the outer restrict[rab][c] of Ax.4 are left to
    ``_restrict_outer_ok``.
    """
    v = restrict[x][y]
    # Ax.5, restrict[meet(a, b)][a] = meet(a, b): (x, y) is its cell.
    if v != x and x in meet[y]:
        return False
    # Ax.4, meet(restrict[a][c], restrict[b][c]) = restrict[restrict[a][b]][c]:
    # (x, y) is (a, c), (b, c) or (a, b).
    row_x = restrict[x]
    row_y = restrict[y]
    row_v = restrict[v]
    meet_v = meet[v]
    for z, row_z in enumerate(restrict):
        xz = row_x[z]
        zy = row_z[y]
        if zy is not None:
            # (a, b, c) = (x, z, y)
            if xz is not None:
                rhs = restrict[xz][y]
                if rhs is not None and meet_v[zy] != rhs:
                    return False
            # (a, b, c) = (z, x, y)
            zx = row_z[x]
            if zx is not None:
                rhs = restrict[zx][y]
                if rhs is not None and meet[zy][v] != rhs:
                    return False
        # (a, b, c) = (x, y, z)
        yz = row_y[z]
        if xz is not None and yz is not None:
            rhs = row_v[z]
            if rhs is not None and meet[xz][yz] != rhs:
                return False
    return _restrict_outer_ok(meet, restrict, x, y)


def _restrict_outer_ok(
    meet: list[list[int]], restrict: list[list[int | None]], x: int, y: int
) -> bool:
    """The Ax.4 instances (a, b, y) with restrict[a][b] = x, found by one
    reverse lookup over the table."""
    v = restrict[x][y]
    for row_a in restrict:
        if x not in row_a:
            continue
        ay = row_a[y]
        if ay is None:
            continue
        meet_ay = meet[ay]
        for b, ab in enumerate(row_a):
            if ab == x:
                by = restrict[b][y]
                if by is not None and meet_ay[by] != v:
                    return False
    return True


def _known_cells_ok(table: list[list[int | None]], cell_ok) -> bool:
    """Whether every law instance whose cells are all known holds.

    Each such instance reads some known cell of ``table``.
    """
    return all(
        cell_ok(a, b)
        for a, row in enumerate(table)
        for b, t in enumerate(row)
        if t is not None
    )


def _fill_cells(
    table: list[list[int | None]],
    free: Sequence[tuple[int, int]],
    cell_ok,
    counter: list[int],
    limit: int,
    complete,
) -> None:
    """Assign the free cells of ``table`` in order, values ascending.

    One node per call, counted against ``limit``.  The first node that
    assigns a cell checks the cells already known; after that, each
    value is checked only against the law instances that read its cell
    (``cell_ok(a, b)``), since every other instance that is fully known
    held at an earlier node.  ``complete`` runs when no free cell is left.
    """
    values = range(len(table))

    def fill(k: int) -> None:
        counter[0] += 1
        if counter[0] > limit:
            raise _NodeLimit
        if k == len(free):
            complete()
            return
        if k == 0 and not _known_cells_ok(table, cell_ok):
            return
        a, b = free[k]
        row = table[a]
        for v in values:
            row[b] = v
            if cell_ok(a, b):
                fill(k + 1)
        row[b] = None

    fill(0)


def enumerate_axiom_models(
    n: int, budget: SearchBudget = DEFAULT_BUDGET
) -> ModelCatalog:
    """All law-abiding algebras of a given size, up to isomorphism.

    Backtracks over the minus table and then, for each complete minus
    table, over the restrict table, with the forced cells seeded (bottom
    fixed at element 0).  Each filled cell is checked against the law
    instances that read it; complete models are checked once more with
    ``check_axioms`` and deduplicated by canonical form.
    """
    if n < 1:
        raise TableError(f"algebras are nonempty, so size {n} has no models")
    counter = [0]
    found: dict[str, FiniteAlgebra] = {}

    minus: list[list[int | None]] = [[None] * n for _ in range(n)]
    restrict: list[list[int | None]] = [[None] * n for _ in range(n)]
    for a in range(n):
        minus[a][a] = 0
        minus[a][0] = a if a != 0 else 0
        restrict[a][a] = a
        restrict[0][a] = 0
        restrict[a][0] = 0
    free_minus = [
        (a, b) for a in range(n) for b in range(n) if minus[a][b] is None
    ]
    free_restrict = [
        (a, b) for a in range(n) for b in range(n) if restrict[a][b] is None
    ]

    def model_found() -> None:
        alg = FiniteAlgebra.from_tables(minus, restrict)
        report = check_axioms(alg)
        if not report.passed:
            raise InconsistencyError(
                "incremental pruning admitted a non-model"
            )
        found.setdefault(canonical_form(alg), alg)

    def minus_complete() -> None:
        meet = [[row[t] for t in row] for row in minus]
        _fill_cells(
            restrict,
            free_restrict,
            partial(_restrict_cell_ok, meet, restrict),
            counter,
            budget.node_limit,
            model_found,
        )

    exhaustive = True
    try:
        _fill_cells(
            minus,
            free_minus,
            partial(_minus_cell_ok, minus),
            counter,
            budget.node_limit,
            minus_complete,
        )
    except _NodeLimit:
        exhaustive = False

    models = tuple(found[key] for key in sorted(found))
    return ModelCatalog(n, models, exhaustive, counter[0])


# ---------------------------------------------------------------------------
# Differential validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DifferentialEntry:
    index: int
    axioms: AxiomReport
    embedding: EmbeddingResult
    agree: bool | None  # None when the search was inconclusive

    def render(self) -> str:
        token = (
            "INCONCLUSIVE" if self.agree is None else ("PASS" if self.agree else "FAIL")
        )
        return (
            f"{token} algebra={self.index} axioms="
            f"{'pass' if self.axioms.passed else 'fail'} "
            f"embedding={self.embedding.verdict} base={self.embedding.base_size}"
        )


@dataclass(frozen=True)
class DifferentialReport:
    entries: tuple[DifferentialEntry, ...]
    budget: SearchBudget

    @property
    def disagreements(self) -> tuple[DifferentialEntry, ...]:
        return tuple(e for e in self.entries if e.agree is False)

    @property
    def inconclusive(self) -> tuple[DifferentialEntry, ...]:
        return tuple(e for e in self.entries if e.agree is None)

    @property
    def all_agree(self) -> bool:
        return not self.disagreements and not self.inconclusive


def differential_check(
    corpus: Sequence[FiniteAlgebra], budget: SearchBudget = DEFAULT_BUDGET
) -> DifferentialReport:
    """Cross-validate the law checker against the embedding search.

    For a law-abiding algebra the search runs at base size equal to its
    number of atoms, which the canonical construction guarantees to
    suffice; for the rest the budget's base size is used.  Agreement
    means the two verdicts coincide; inconclusive searches are reported
    separately and never counted as agreement.
    """
    entries = []
    for idx, alg in enumerate(corpus):
        report = check_axioms(alg)
        if report.passed:
            base = len(alg.order_atoms())
        else:
            base = budget.max_base_size
        result = brute_force_embedding(alg, replace(budget, max_base_size=base))
        if result.verdict == "inconclusive":
            agree = None
        else:
            agree = report.passed == result.found
        entries.append(DifferentialEntry(idx, report, result, agree))
    return DifferentialReport(tuple(entries), budget)
