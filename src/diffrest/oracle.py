"""Independent brute-force machinery.

Two oracles: an exhaustive embedding search deciding whether an
abstract algebra is isomorphic to an algebra of partial functions at
all, and an exhaustive model enumerator for the defining laws that
meets each isomorphism class once.  A differential driver cross-checks
the law checker against the embedding search on whole corpora.

The embedding search works point by point.  The trace of a base point
assigns to every algebra element either "undefined" or a value point;
traces are locally constrained by the two pointwise operation rules and
are fully determined by their values on a generating set.  One walk of
the closure, once per search, both picks the generators and plans the
propagation: it takes the elements from the top of the order down and
opens a level at each one that the earlier levels do not determine,
with the steps that derive each newly determined element from two
known ones.  The search assigns one generator at a time and prunes the
prefix unless both tables over the elements known by then, read
through the trace, are the operations on the values (one byte
comparison each).  The plan only compares values, so the points are
interchangeable: one trace per equality pattern is searched and its
relabelings are only counted.  A second search covers the injectivity
requirements with one column per trace, its least relabeling, since
every relabeling separates the same pairs; at each node it opens just
the columns that separate a pair still unseparated.
A representation on fewer points extends to one on more points by
padding the base, so exhausting the maximum base size decides
non-representability up to that size.  The search prunes only with the
tables, never with the laws or the filter theory it cross-checks.

The model enumerator fills the minus table cell by cell and then, for
each complete minus table, the restrict table.  After each cell it
checks only the instances of the five laws that read that cell: every
other instance whose cells are all known was checked when its last
cell was filled, or at the stage's first node if all its cells were
seeded.  The check is compiled (``_cell_check``) from the law checker's
own reading of the laws, ``algebra._read``: the laws over minus alone
(meet read as two minus cells) while minus fills, the rest once it is
complete.  It prunes with the five laws alone, never with derived laws
or filter theory, since it is the oracle for the claim that they
follow.  Isomorph rejection is one lex-leader cut in the fill loop
(``_cuts``): by every relabeling fixing 0 in the minus stage, which so
completes the least minus table of each class only, and by that
table's automorphisms in the restrict stage.  So each model class is
met once, at its least ``(minus, restrict)``, and the catalog lists the
models in the order the search meets them, which is ascending.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import NamedTuple, Sequence

from .algebra import (
    AXIOM_LAWS,
    SIZE_CAP,
    AlgebraError,
    AxiomReport,
    FiniteAlgebra,
    InconsistencyError,
    Law,
    TableError,
    Term,
    check_axioms,
)
from .algebra import _checked_make, _define, _fold, _read, _subterms
from .formats import BASE_RANGE_CAP
from .pfun import PartialFunction
from .represent import Representation, verify_representation


class BudgetExceededError(AlgebraError):
    """A request falls outside the search budget."""


class _BudgetFields(NamedTuple):
    max_base_size: int
    node_limit: int


class SearchBudget(_BudgetFields):
    """Limits for the oracles, which are deterministic, so a budget
    holds no seed.

    ``max_base_size`` may be zero (the empty base is a legitimate
    search target) and is at most ``BASE_RANGE_CAP``, because a found
    embedding builds its base point by point; ``node_limit`` bounds
    backtracking nodes and turns an exhausted budget into an explicit
    inconclusive verdict, never a silent miss.  Algebras above
    ``SIZE_CAP`` elements are refused.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, max_base_size: int = 4, node_limit: int = 2_000_000):
        if type(max_base_size) is not int or type(node_limit) is not int:
            raise BudgetExceededError("budget limits must be integers")
        if max_base_size < 0:
            raise BudgetExceededError("max_base_size must be nonnegative")
        if max_base_size > BASE_RANGE_CAP:
            raise BudgetExceededError(f"max_base_size exceeds the cap of {BASE_RANGE_CAP} points")
        if node_limit <= 0:
            raise BudgetExceededError("budget limits must be positive")
        return tuple.__new__(cls, (max_base_size, node_limit))


def _check_size(n: int) -> None:
    if n > SIZE_CAP:
        raise BudgetExceededError(f"algebra size {n} exceeds the budget limit {SIZE_CAP}")


DEFAULT_BUDGET = SearchBudget()


class _NodeLimit(Exception):
    pass


# ---------------------------------------------------------------------------
# Embedding search
# ---------------------------------------------------------------------------


def generating_set(alg: FiniteAlgebra) -> tuple[int, ...]:
    """A small generating set, chosen greedily from the top of the order:
    the generators of the propagation plan's levels."""
    return tuple(level.gen for level in _propagation_plan(alg))


class EmbeddingResult(NamedTuple):
    """The verdict of one embedding search.

    ``nodes`` counts every search node: one per generator value that the
    full trace enumeration tries, plus one per cover-search node.  The
    trace enumeration counts the copies of a trace under relabeling of
    the points but does not visit them; the cover search neither visits
    nor counts them, since they separate the same pairs.
    ``trace_nodes`` is the share spent enumerating traces.
    """

    verdict: str  # "found" | "none" | "inconclusive"
    assignment: tuple[PartialFunction, ...] | None
    base_size: int
    nodes: int
    trace_nodes: int

    @property
    def found(self) -> bool:
        return self.verdict == "found"


# The operation of a plan step (cell, op, a, b): tau[cell] = op(tau[a], tau[b]).
_MINUS, _RESTRICT = 0, 1


class _PlanLevel(NamedTuple):
    """What assigning one generator makes known: ``derive`` fills each
    newly known element from two known ones, in breadth-first order, and
    ``known`` lists the elements known by then, in the order they became
    known."""

    gen: int
    derive: tuple[tuple[int, int, int, int], ...]
    known: bytes

    def tables(self, alg: FiniteAlgebra) -> tuple[bytes, ...]:
        """The minus and restrict tables over the known elements, row
        after row: every equation tau[op(a, b)] = op(tau[a], tau[b])
        among them.  Built where the trace search reads them, so that
        ``generating_set`` does not."""
        ids = self.known
        return tuple(
            b"".join(map(ids.translate, map(rows.__getitem__, ids)))
            for rows in (alg.tables["minus"], alg.tables["restrict"])
        )


def _propagation_plan(alg: FiniteAlgebra) -> tuple[_PlanLevel, ...]:
    """The one walk of the closure of a generating set: one level per
    generator.

    The walk takes the elements by descending down-set size, then id,
    and opens a level at each one that the earlier levels have not made
    known.  Each newly known element is combined, both ways and by both
    operations, with itself and each element known before it, so every
    pair is read once.  Which elements become known depends only on the
    tables, not on the values chosen, so the plan is built once per search.
    """
    n = alg.size
    tables = (alg.minus, alg.restrict)
    known: list[int] = []
    is_known = [False] * n
    levels = []
    for g in sorted(range(n), key=lambda e: (-alg.down_masks[e].bit_count(), e)):
        if is_known[g]:
            continue
        is_known[g] = True
        known.append(g)
        derive = []
        qi = len(known) - 1
        while qi < len(known):
            e = known[qi]
            qi += 1
            for x in known[:qi]:
                for a, b in ((e, x), (x, e)) if x != e else ((e, e),):
                    for op in (_MINUS, _RESTRICT):
                        cell = tables[op][a][b]
                        if not is_known[cell]:
                            is_known[cell] = True
                            known.append(cell)
                            derive.append((cell, op, a, b))
        levels.append(_PlanLevel(g, tuple(derive), bytes(known)))
    return tuple(levels)


def _columns_and_masks(
    alg: FiniteAlgebra, m: int, counter: list[int], limit: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Canonical point traces (element -> 0 or a value) and their masks.

    Generators are assigned one at a time through the plan, and a clash
    prunes the prefix.  The plan only compares values with each other and
    with 0, so permuting the points 1..m keeps prefixes consistent: the
    symmetry comes from the tables, not from the laws.  A generator tries
    0, the values in use and one fresh value, so one canonical trace per
    equality pattern is searched; ``counter`` still counts every value
    the full search tries.  Every relabeling of a trace is consistent
    too and shares its mask, since it separates the same pairs.
    """
    plan = [(*level, level.tables(alg)) for level in _propagation_plan(alg)]
    n, top = alg.size, min(m, len(plan)) + 1
    # A value is at most the number of generators, so the trace is a
    # translation table, and so is ``on_values[op][v]``: w -> op(v, w).
    tau = bytearray(256)
    away = [bytes([v]) * v + b"\0" + bytes([v]) * (255 - v) for v in range(top)]
    on_values = (away, [bytes(256)] + [bytes.maketrans(b"", b"")] * (top - 1))
    traces: list[tuple[int, ...]] = []

    def assign(k: int, used: int, copies: int) -> None:
        # The prefix uses the values 1..used and stands for ``copies``
        # relabeled prefixes, all of which the full search visits.
        if k == len(plan):
            traces.append(tuple(tau[:n]))
            return
        counter[0] += copies * (m + 1)
        if counter[0] > limit:
            counter[0] = limit + 1
            raise _NodeLimit
        g, derive, known, tables = plan[k]
        for v in range(min(used + 1, m) + 1):
            tau[g] = v
            for cell, op, a, b in derive:
                ta = tau[a]
                if op:
                    tau[cell] = tau[b] if ta else 0
                else:
                    tau[cell] = ta if ta and tau[b] != ta else 0
            # Each table read through the trace must be the operation on values.
            tk = known.translate(tau)
            for table, rows in zip(tables, on_values):
                if table.translate(tau) != b"".join(map(tk.translate, map(rows.__getitem__, tk))):
                    break
            else:
                assign(k + 1, max(v, used), copies if v <= used else copies * (m - used))

    assign(0, 0, 1)
    return traces, _separation_masks(traces, n, m)


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
    _check_size(n)
    m = budget.max_base_size
    counter = [0]
    all_pairs_mask = (1 << (n * (n - 1) // 2)) - 1

    try:
        traces, trace_masks = _columns_and_masks(alg, m, counter, budget.node_limit)
    except _NodeLimit:
        return EmbeddingResult("inconclusive", None, m, counter[0], counter[0])
    trace_nodes = counter[0]

    # One column per trace, its least relabeling (the points numbered in
    # the order they first appear): every relabeling separates the same
    # pairs, so the subtree below each is the same.  Columns are tried by
    # descending mask popcount, then lexicographically.
    columns = []
    coverage = 0
    for trace, mask in zip(traces, trace_masks):
        rank = {v: i for i, v in enumerate(dict.fromkeys((0, *trace)))}
        columns.append((-mask.bit_count(), tuple([rank[v] for v in trace]), mask))
        coverage |= mask
    columns.sort()

    path: list[tuple[int, ...]] = []

    def build(cols: list[tuple[int, ...]]) -> tuple[PartialFunction, ...]:
        base = frozenset(range(1, m + 1))
        return tuple(
            PartialFunction(base, [(p, col[a]) for p, col in enumerate(cols, 1) if col[a]])
            for a in range(n)
        )

    def dfs(depth: int, unseparated: int) -> list[tuple[int, ...]] | None:
        counter[0] += 1
        if counter[0] > budget.node_limit:
            raise _NodeLimit
        if unseparated == 0:
            return list(path)
        if depth == m or unseparated & ~coverage:
            return None
        for _, col, mask in columns:
            if mask & unseparated:  # only columns with new bits are opened
                path.append(col)
                result = dfs(depth + 1, unseparated & ~mask)
                if result is not None:
                    return result
                path.pop()
        return None

    try:
        solution = dfs(0, all_pairs_mask)
    except _NodeLimit:
        return EmbeddingResult("inconclusive", None, m, counter[0], trace_nodes)

    if solution is None:
        return EmbeddingResult("none", None, m, counter[0], trace_nodes)

    assignment = build(solution)
    rep = Representation(alg, "external", tuple(range(1, m + 1)), assignment)
    report = verify_representation(rep)
    if not report.passed:
        raise InconsistencyError(
            f"search produced an assignment that fails verification: {report.failures[0]}"
        )
    return EmbeddingResult("found", assignment, m, counter[0], trace_nodes)


# ---------------------------------------------------------------------------
# Exhaustive model enumeration
# ---------------------------------------------------------------------------


class ModelCatalog(NamedTuple):
    size: int
    models: tuple[FiniteAlgebra, ...]
    exhaustive: bool
    nodes: int


def _rewrite(term: Term, sigma: dict[str, str], target: str = "") -> Term:
    """``term`` with its variables renamed by ``sigma``, as the stage that
    fills ``target`` reads it (meet as two minus cells while minus fills)."""
    if isinstance(term, str):
        return sigma.get(term, term)
    op, s, t = term[0], _rewrite(term[1], sigma, target), _rewrite(term[2], sigma, target)
    return ("minus", s, ("minus", s, t)) if (op, target) == ("meet", "minus") else (op, s, t)


def _symmetries(varnames: tuple[str, ...], equations: list) -> list[dict[str, str]]:
    """The permutations of the variables that map the claim, the first of
    ``equations``, onto itself and the guards after it onto each other,
    each equation read both ways."""

    def image(sigma: dict[str, str]) -> tuple:
        claim, *guards = (frozenset(_rewrite(u, sigma) for u in eq) for eq in equations)
        return claim, set(guards)

    perms = (dict(zip(varnames, p)) for p in itertools.permutations(varnames))
    return [s for s in perms if image(s) == image({})]


def _scan(varnames: tuple[str, ...], equations: list, occ: tuple, target: str):
    """A sort key and the lines of the scan of the instances of a law (its
    claim and guards, from ``_read``) in which ``occ``, whose operands are
    distinct and not 0, reads the cell (x, y).  A variable operand is
    bound to x or y; another must evaluate to it, a reverse lookup that
    first tests that the row holds the value.  The other variables loop,
    the lookup's first.  Each subterm, row and equation is computed or
    tested in the loop that fixes what it reads (``_fold``).  Instances
    that read an unknown cell are skipped.  Names spell their terms, so
    a name holds one value in every scan."""
    value, wanted = {occ: "cell", "0": "0"}, {}  # wanted: the reverse lookups
    for operand, at in zip(occ[1:], "xy"):
        (value if operand in varnames else wanted)[operand] = at
    free = [u for u in _subterms(*wanted) if u in varnames] + list(varnames)
    loops = [u for u in dict.fromkeys(free) if u not in value]
    level = dict.fromkeys(value, 0) | {u: i for i, u in enumerate(loops, 1)}
    tested = sum(equations, ())
    terms = _fold(level, [*wanted, *tested], max)
    # A loop variable read only as the index of a lookup on a row fixed
    # outside its loop is decided by the test on that row: it gets no loop.
    decided = {
        u[2] for u in wanted if u[2] in loops and u[2] not in tested
        and level[u[1]] < level[u[2]] and [t for t in terms if u[2] in t[1:]] == [u]
    }
    rows, lines, spell = {}, [], str.maketrans("[", "_", "]")

    def bind(p: Term, loop: str = "") -> None:
        """Name the rows of p read in deeper loops, and test lookups on them."""
        deeper = (u[0] for u in terms if u[1] == p and (p in loops or level[u] > level[p]))
        for op in dict.fromkeys(deeper):
            rows[op, p] = row = f"{op}_{value[p]}".translate(spell)
            header = f"for {loop}, {row} in enumerate({op}):"
            lines.append(header if loop else f"{row} = {op}[{value[p]}]")
            lookups = [c for u, c in wanted.items() if u[:2] == (op, p) and level[u[2]] > level[p]]
            lines.extend(f"if {c} in {row}:" for c in lookups)
            loop = ""
        lines.extend([f"for {loop} in R:"] if loop else [])

    for p in list(value):
        bind(p)
    for depth in range(len(loops) + 1):
        if depth:
            value[loops[depth - 1]] = f"e{depth}"
            if loops[depth - 1] not in decided:
                bind(loops[depth - 1], f"e{depth}")
        for u in (u for u in terms if level[u] == depth):
            read = f"{rows.get(u[:2]) or f'{u[0]}[{value[u[1]]}]'}[{value[u[2]]}]"
            if u in wanted:
                value[u] = wanted[u]
                lines += [] if u[2] in decided else [f"if {read} == {value[u]}:"]
            elif u[0] == target:
                value[u] = f"{u[0]}_{value[u[1]]}_{value[u[2]]}".translate(spell)
                lines += [f"{value[u]} = {read}", f"if {value[u]} is not None:"]
            else:  # a complete table, read where the value is used
                value[u] = read
            bind(u)
        for i, equation in enumerate(equations):  # the claim must fail, each guard hold
            if depth == max((level[u] for u in equation if u not in wanted), default=0):
                lhs, rhs = (wanted.get(u) or value[u] for u in equation)
                lines.append(f"if {lhs} {'==' if i else '!='} {rhs}:")
    return (len(loops), -len(wanted)), lines + ["return False"]


def _cell_check(laws: Sequence[Law], target: str):
    """Compile the cell check of ``laws``, as ``_read`` gives them, in the
    stage that fills ``target``: a map from the tables to ``check(x, y)``.
    Each occurrence of ``target`` is one ``_scan`` unless a symmetry of its
    law maps it onto an earlier one; one with an operand 0 or repeated
    raises ``ValueError``.  Fewer loops run first, then reverse lookups;
    scans of one sort key share their lines before a first test and the
    loops and tests of their common prefix."""
    scans = []
    for law in laws:
        equations = [tuple(_rewrite(u, {}, target) for u in eq) for eq in _read(law)[0]]
        symmetries, seen = _symmetries(law.varnames, equations), set()
        for occ in dict.fromkeys(u for u in _subterms(*sum(equations, ())) if u[0] == target):
            if "0" in occ or occ[1] == occ[2]:
                raise ValueError(f"law {law.name}: {target} has an operand 0 or repeated")
            if occ not in seen:
                seen |= {_rewrite(occ, sigma) for sigma in symmetries}
                scans.append(_scan(law.varnames, equations, occ, target))
    groups, body = {}, []
    for key, lines in sorted(scans, key=lambda scan: scan[0]):
        first = next(i for i, line in enumerate(lines) if line.endswith(":"))
        head, node = groups.setdefault(key, ({}, {}))
        head.update(dict.fromkeys(lines[:first]))
        for line in lines[first:]:
            node = node.setdefault(line, {})

    def emit(node: dict, depth: int) -> None:
        for line, child in node.items():
            body.append("    " * depth + line)
            emit(child, depth + line.endswith(":"))

    for head, node in groups.values():
        body.extend("        " + line for line in head)
        emit(node, 2)
    meet = "[[row[t] for t in row] for row in minus]" if target != "minus" else "None"
    source = f"def bind(minus, restrict):\n    meet = {meet}\n    R = range(len(minus))\n"
    source += f"    def check(x, y):\n        cell = {target}[x][y]\n" + "\n".join(body)
    source += "\n        return True\n    return check"
    return _define(source, f"<{target} cell check>")


@cache
def _cell_checks():
    """The cell checks of the two stages, compiled on first use: the laws
    over minus alone while minus fills, the rest once it is complete."""
    rest = [law for law in AXIOM_LAWS if "restrict" in {u[0] for u in _subterms(law.lhs, law.rhs)}]
    over_minus = [law for law in AXIOM_LAWS if law not in rest]
    return _cell_check(over_minus, "minus"), _cell_check(rest, "restrict")


def _known_cells_ok(table: list[list[int | None]], cell_ok) -> bool:
    """Whether every law instance whose cells are all known holds: each
    such instance reads some known cell of ``table``."""
    known = ((a, b) for a, row in enumerate(table) for b, t in enumerate(row) if t is not None)
    return all(cell_ok(a, b) for a, b in known)


def _cuts(free: Sequence[tuple[int, int]], group: Sequence[bytes]) -> list[list[tuple]]:
    """The symmetry cut of a table filled in the order ``free``: per free
    cell, the lex-leader tests that the cell completes.

    The cut keeps a table T only if no relabeling sigma in ``group``
    (which must map the free cells onto themselves) has an image
    sigma(T)[sigma a][sigma b] = sigma(T[a][b]) less than T in fill order,
    at the first cell where the two differ and are both known.  Cell j of
    the image is sigma(T[free[p[j]]]), so the comparison reaches it once
    the cells up to j and p[0..j] are known, that is, up to the largest of
    p[0..j], a permutation's prefix.  That cell gets the test (j + 1,
    p[:j + 1], sigma as a translation table) of the longest such
    comparison."""
    index = {cell: k for k, cell in enumerate(free)}
    cuts: list[list[tuple]] = [[] for _ in free]
    for sigma in group:
        table = sigma.ljust(256, b"\0")
        image = [index[sigma[a], sigma[b]] for a, b in free]
        p = bytes(sorted(range(len(free)), key=image.__getitem__))
        for k, j in {k: j for j, k in enumerate(itertools.accumulate(p, max))}.items():
            cuts[k].append((j + 1, p[: j + 1], table))
    return cuts


def _fill_cells(
    table: list[list[int | None]],
    free: Sequence[tuple[int, int]],
    check,
    cuts: Sequence[Sequence[tuple]],
    counter: list[int],
    limit: int,
    complete,
) -> None:
    """Assign the free cells of ``table`` in order, values ascending.

    One node per call, counted against ``limit``.  The first node that
    assigns a cell checks the cells already known; after that, each
    value is checked only against the law instances that read its cell
    (``check(a, b)``), since every other instance that is fully known
    held at an earlier node.  A value that passes is recorded in the fill
    vector and must pass its cell's lex-leader tests, ``cuts[k]`` from
    ``_cuts``.  ``complete`` runs when no free cell is left.
    """
    values = range(len(table))
    vals = bytearray(256)  # free[k]'s value at k; 256 bytes, so p.translate(vals) reads p's cells

    def fill(k: int) -> None:
        counter[0] += 1
        if counter[0] > limit:
            raise _NodeLimit
        if k == len(free):
            complete()
            return
        if k == 0 and not _known_cells_ok(table, check):
            return
        (a, b), tests = free[k], cuts[k]
        row = table[a]
        for v in values:
            row[b] = v
            if check(a, b):
                vals[k] = v
                for hi, p, sigma in tests:
                    if vals[:hi] > p.translate(vals).translate(sigma):
                        break
                else:
                    fill(k + 1)
        row[b] = None

    fill(0)


def enumerate_axiom_models(n: int, budget: SearchBudget = DEFAULT_BUDGET) -> ModelCatalog:
    """All law-abiding algebras of a given size, up to isomorphism.

    Backtracks over the minus table and then over the restrict table,
    with the forced cells seeded (bottom fixed at element 0).  Each filled
    cell is checked against the law instances that read it, then by the
    symmetry cut of ``_cuts``; complete models are checked once more with
    ``check_axioms``.  The minus stage cuts with every relabeling fixing 0:
    these fix the seeded cells and map law-abiding tables to law-abiding
    ones, so the cut passes exactly the least complete minus table M of
    each class in fill order, the first the search meets.  The restrict
    stage over M cuts with M's automorphisms, the relabelings fixing 0
    that map M onto itself.  That cut is exact too: an isomorphism of two
    models over M fixes 0 and maps M onto itself, so it keeps exactly the
    least restrict table of each class.  So each class is met once, at
    its least ``(minus, restrict)`` over the relabelings fixing 0, and
    the catalog lists the models in the order the search meets them:
    ascending in ``(minus, restrict)``.  Sizes 1-7 take 2, 3, 11, 66,
    428, 5,649 and 310,606 nodes; size 8 finds 6 models within the
    default node limit.  Sizes above 8 are refused before any table is
    built.
    """
    if n < 1:
        raise TableError(f"algebras are nonempty, so size {n} has no models")
    _check_size(n)
    if n > 8:  # the node limit does not bound time: each node's checks scan rows
        raise BudgetExceededError(f"model search size {n} exceeds the limit 8")
    counter = [0]
    found: list[FiniteAlgebra] = []
    minus_check, restrict_check = _cell_checks()

    minus: list[list[int | None]] = [[None] * n for _ in range(n)]
    restrict: list[list[int | None]] = [[None] * n for _ in range(n)]
    for a in range(n):
        minus[a][a], minus[a][0] = 0, a
        restrict[a][a], restrict[0][a], restrict[a][0] = a, 0, 0
    free_minus, free_restrict = (
        [(a, b) for a in range(n) for b in range(n) if table[a][b] is None]
        for table in (minus, restrict)
    )
    group = [bytes((0, *p)) for p in itertools.permutations(range(1, n))][1:]  # less the identity

    def model_found() -> None:
        alg = FiniteAlgebra.from_tables(minus, restrict)
        if not check_axioms(alg).passed:
            raise InconsistencyError("incremental pruning admitted a non-model")
        found.append(alg)

    def minus_complete() -> None:
        cells = [(a, b, t) for a, row in enumerate(minus) for b, t in enumerate(row)]
        automorphisms = [s for s in group if all(s[t] == minus[s[a]][s[b]] for a, b, t in cells)]
        check, cuts = restrict_check(minus, restrict), _cuts(free_restrict, automorphisms)
        _fill_cells(restrict, free_restrict, check, cuts, counter, budget.node_limit, model_found)

    exhaustive = True
    try:
        check, cuts = minus_check(minus, restrict), _cuts(free_minus, group)
        _fill_cells(minus, free_minus, check, cuts, counter, budget.node_limit, minus_complete)
    except _NodeLimit:
        exhaustive = False

    return ModelCatalog(n, tuple(found), exhaustive, counter[0])


# ---------------------------------------------------------------------------
# Differential validation
# ---------------------------------------------------------------------------


class DifferentialEntry(NamedTuple):
    index: int
    axioms: AxiomReport
    embedding: EmbeddingResult
    agree: bool | None  # None when the search was inconclusive


class DifferentialReport(NamedTuple):
    entries: tuple[DifferentialEntry, ...]

    @property
    def disagreements(self) -> tuple[DifferentialEntry, ...]:
        return tuple(e for e in self.entries if e.agree is False)

    @property
    def inconclusive(self) -> tuple[DifferentialEntry, ...]:
        return tuple(e for e in self.entries if e.agree is None)


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
        result = brute_force_embedding(alg, SearchBudget(base, budget.node_limit))
        if result.verdict == "inconclusive":
            agree = None
        else:
            agree = report.passed == result.found
        entries.append(DifferentialEntry(idx, report, result, agree))
    return DifferentialReport(tuple(entries))
