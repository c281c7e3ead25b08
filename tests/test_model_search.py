"""Model enumeration that checks only the law instances reading each new cell.

``reference_enumerate_axiom_models`` is the enumerator that re-scanned
every law instance after each filled cell, kept with its two scans
``_laws_on_partial_minus`` and ``_laws_on_partial_restrict`` as the
oracle.  Both cut every minus table that a relabeling fixing 0 maps to
a lesser one in fill order, and every restrict table that an
automorphism of its minus table maps to a lesser one.  The reference
compares each relabeling from the first cell at every node, not only
at the cells that complete a comparison, finds the automorphisms by
testing all (n-1)! relabelings fixing 0, and lists its models in the
order it meets them.  It raises if it meets two minus tables of one
``minus_form`` or two models of one brute-force
``reference_canonical_form``.  The incremental search must visit the
same nodes, so it must return the identical models, in the identical
order, with the identical node count and ``exhaustive`` flag, also when
a node limit stops it inside either stage.  With the skips turned off,
the reference prunes no isomorph at all and keeps the first model of
each class it meets, the least in fill order, so it must still find the
same catalogs.
``reference_fill`` is the same fill loop for one table, so that the
two searches can also be compared from start states the enumerator
never seeds, including violated ones.

The cell checks are compiled from the law terms, so they are also
compared one cell at a time with their definition, ``spec_check``: every
law instance that reads the cell and no unknown cell holds.  That runs
for the enumerator's two stage checks and for every law of ``LAW_TABLE``
alone, ``<=`` claims and antecedents included.
"""

import collections
import itertools
import random
from functools import cache, lru_cache

import pytest

from conftest import run_cli, source_mutant

from diffrest import (
    FiniteAlgebra,
    InconsistencyError,
    SearchBudget,
    check_axioms,
    serialize_algebra,
)
from diffrest import oracle
from diffrest.algebra import AXIOM_LAWS, LAW_TABLE, SUBTRACTION_LAWS, parse_law
from diffrest.oracle import DEFAULT_BUDGET, ModelCatalog, _NodeLimit
from lemmas import minus_form, minus_tables_reached, reference_canonical_form, relabel_table


def _laws_on_partial_minus(minus: list[list[int | None]], n: int) -> bool:
    # The three complement laws, skipping instances with unknown cells.
    for a in range(n):
        for b in range(n):
            t = minus[b][a]
            if t is not None:
                u = minus[a][t]
                if u is not None and u != a:
                    return False
            ab = minus[a][b]
            ba = minus[b][a]
            if ab is not None and ba is not None:
                mab = minus[a][ab]
                mba = minus[b][ba]
                if mab is not None and mba is not None and mab != mba:
                    return False
            for c in range(n):
                if ab is not None:
                    left = minus[ab][c]
                    ac = minus[a][c]
                    if left is not None and ac is not None:
                        right = minus[ac][b]
                        if right is not None and left != right:
                            return False
    return True


def _laws_on_partial_restrict(
    minus: list[list[int]], restrict: list[list[int | None]], n: int
) -> bool:
    # The two restriction laws, skipping instances with unknown cells.
    def meet(a: int, b: int) -> int:
        return minus[a][minus[a][b]]

    for a in range(n):
        for b in range(n):
            ab = meet(a, b)
            r = restrict[ab][a]
            if r is not None and r != ab:
                return False
            rab = restrict[a][b]
            for c in range(n):
                rac = restrict[a][c]
                rbc = restrict[b][c]
                if rac is None or rbc is None or rab is None:
                    continue
                lhs = meet(rac, rbc)
                rhs = restrict[rab][c]
                if rhs is not None and lhs != rhs:
                    return False
    return True


def automorphisms(minus: list[list[int]]) -> list[tuple[int, ...]]:
    """Every relabeling that fixes 0 and maps the complete table ``minus``
    onto itself, found among all (n-1)! relabelings fixing 0."""
    n = len(minus)
    return [
        sigma
        for sigma in map((0,).__add__, itertools.permutations(range(1, n)))
        if all(sigma[minus[a][b]] == minus[sigma[a]][sigma[b]] for a in range(n) for b in range(n))
    ]


def leads(table: list[list[int | None]], free, relabelings) -> bool:
    """Whether no image sigma(T)[sigma a][sigma b] = sigma(T[a][b]) of the
    partial table T = ``table`` under ``relabelings`` is less than T, at the
    first cell of ``free`` where the two differ, walking from the first
    cell and stopping at a cell that either leaves unknown."""
    for sigma in relabelings:
        inverse = sorted(range(len(sigma)), key=sigma.__getitem__)
        for a, b in free:
            mine, source = table[a][b], table[inverse[a]][inverse[b]]
            if None in (mine, source) or mine < sigma[source]:
                break
            if mine > sigma[source]:
                return False
    return True


def reference_enumerate_axiom_models(
    n: int, budget: SearchBudget = DEFAULT_BUDGET, skip_copies: bool = True
) -> ModelCatalog:
    """All law-abiding algebras of a given size, up to isomorphism.

    Backtracks over the two tables with the forced cells seeded (bottom
    fixed at element 0) and the laws re-checked as cells fill; complete
    models are listed in the order the search meets them, one per
    ``reference_canonical_form``.  With ``skip_copies``, it cuts each
    minus table that ``leads`` rejects under every relabeling fixing 0,
    raises if two complete minus tables share a ``minus_form``, cuts
    each restrict table that ``leads`` rejects under the
    ``automorphisms`` of its minus table, and raises if two models share
    a ``reference_canonical_form``; without, it keeps the first model of
    each form.
    """
    counter = [0]
    found: dict[str, FiniteAlgebra] = {}
    minus_forms: set = set()
    relabelings = list(map((0,).__add__, itertools.permutations(range(1, n))))[1:]
    auts: list[tuple[int, ...]] = []

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

    def fill_restrict(k: int) -> None:
        counter[0] += 1
        if counter[0] > budget.node_limit:
            raise _NodeLimit
        if k == len(free_restrict):
            alg = FiniteAlgebra.from_tables(minus, restrict)
            report = check_axioms(alg)
            if not report.passed:
                raise InconsistencyError(
                    "incremental pruning admitted a non-model"
                )
            form = reference_canonical_form(alg)
            if skip_copies and form in found:
                raise InconsistencyError("symmetry breaking admitted an isomorphic copy")
            found.setdefault(form, alg)
            return
        a, b = free_restrict[k]
        for v in range(n):
            restrict[a][b] = v
            if _laws_on_partial_restrict(minus, restrict, n) and leads(restrict, free_restrict, auts):
                fill_restrict(k + 1)
            restrict[a][b] = None

    def fill_minus(k: int) -> None:
        counter[0] += 1
        if counter[0] > budget.node_limit:
            raise _NodeLimit
        if k == len(free_minus):
            if skip_copies:
                form = minus_form(0, minus)
                if form in minus_forms:
                    raise InconsistencyError("the reference met a minus table class twice")
                minus_forms.add(form)
                auts[:] = automorphisms(minus)
            fill_restrict(0)
            return
        a, b = free_minus[k]
        for v in range(n):
            minus[a][b] = v
            if _laws_on_partial_minus(minus, n) and (
                not skip_copies or leads(minus, free_minus, relabelings)
            ):
                fill_minus(k + 1)
            minus[a][b] = None

    exhaustive = True
    try:
        fill_minus(0)
    except _NodeLimit:
        exhaustive = False

    return ModelCatalog(n, tuple(found.values()), exhaustive, counter[0])


def reference_fill(table, free, laws_hold, cuts, counter, limit, complete) -> None:
    """The reference enumerator's fill loop for one table with no
    symmetry cut (``cuts`` must be empty): every value is followed by a
    full re-scan, ``laws_hold()``."""
    assert not any(cuts)
    n = len(table)

    def fill(k: int) -> None:
        counter[0] += 1
        if counter[0] > limit:
            raise _NodeLimit
        if k == len(free):
            complete()
            return
        a, b = free[k]
        for v in range(n):
            table[a][b] = v
            if laws_hold():
                fill(k + 1)
            table[a][b] = None

    fill(0)


def catalog_key(catalog: ModelCatalog):
    tables = [(m.minus, m.restrict) for m in catalog.models]
    return catalog.size, tables, catalog.nodes, catalog.exhaustive


@lru_cache(maxsize=None)
def reference_key(n: int, limit: int):
    return catalog_key(reference_enumerate_axiom_models(n, SearchBudget(node_limit=limit)))


def mismatches(cases) -> list[tuple[int, int]]:
    """The (size, node limit) cases where the search and the reference differ."""
    out = []
    for n, limit in cases:
        try:
            got = catalog_key(oracle.enumerate_axiom_models(n, SearchBudget(node_limit=limit)))
        except InconsistencyError as err:
            got = str(err)
        if got != reference_key(n, limit):
            out.append((n, limit))
    return out


# Node counts of the exhaustive sweeps, pinned in tests/test_acceptance.py,
# and of the reference that prunes no isomorph: it runs the restrict stage
# for every minus table, with no symmetry cut.
FULL = {1: 2, 2: 3, 3: 11, 4: 66, 5: 428}
UNSKIPPED = {1: 2, 2: 3, 3: 11, 4: 133, 5: 5314}

# A limit L stops the search at node L + 1.  At size 4 the restrict
# stage counts nodes 12-27 and 35-64 and the minus stage the rest; nodes
# 11 and 34 complete the two minus tables.  So the limits stop at every
# node of both stages.  At size 5 the restrict stages count nodes 34-198
# and 217-415; nodes 33 and 216 complete the two minus tables.  The
# limits stop in the minus stage, on a complete minus table, at the
# first restrict node (whose check of the seeded cells is the first), in
# the middle and at both ends of restrict stages, and at the last node.
SIZE_FOUR_LIMITS = range(1, FULL[4] + 2)
SIZE_FIVE_LIMITS = (1, 2, 32, 33, 34, 100, 197, 198, 215, 216, 300, 414, 415, 427)


def test_exhaustive_sweeps_match_reference():
    assert mismatches((n, DEFAULT_BUDGET.node_limit) for n in FULL) == []
    for n, nodes in FULL.items():
        assert reference_key(n, DEFAULT_BUDGET.node_limit)[2] == nodes
        unskipped = catalog_key(reference_enumerate_axiom_models(n, skip_copies=False))
        assert unskipped[:2] == reference_key(n, DEFAULT_BUDGET.node_limit)[:2]
        assert unskipped[2] == UNSKIPPED[n]


def least_relabeling(minus, restrict):
    """The least (minus, restrict) over the relabelings fixing 0."""
    return min(
        tuple(tuple(map(tuple, relabel_table(t, (0, *sigma)))) for t in (minus, restrict))
        for sigma in itertools.permutations(range(1, len(minus)))
    )


def test_catalogs_list_the_least_model_of_each_class_in_ascending_order():
    for n in range(1, 7):
        tables = [(m.minus, m.restrict) for m in oracle.enumerate_axiom_models(n).models]
        assert tables == sorted(set(tables))
        assert [least_relabeling(*pair) for pair in tables] == tables


def test_the_search_completes_one_minus_table_per_class(monkeypatch):
    reached = [minus_tables_reached(monkeypatch, n)[1] for n in range(1, 6)]
    assert list(map(len, reached)) == [1, 1, 1, 2, 2]
    for tables in reached:
        assert len({minus_form(0, minus) for minus in tables}) == len(tables)


def test_every_node_limit_at_size_four_matches_reference():
    assert mismatches((4, limit) for limit in SIZE_FOUR_LIMITS) == []
    assert reference_key(4, FULL[4] - 1)[3] is False
    assert reference_key(4, FULL[4])[3] is True


def test_node_limits_at_size_five_match_reference():
    assert mismatches((5, limit) for limit in SIZE_FIVE_LIMITS) == []


def random_start(rng: random.Random, n: int, density: float) -> list[list[int | None]]:
    return [
        [rng.randrange(n) if rng.random() < density else None for _ in range(n)]
        for _ in range(n)
    ]


def start_states():
    """Partial tables at sizes 3 and 4, many of them violating a known instance.

    Each state is (minus, restrict, free cells in a shuffled order);
    restrict is None for a minus-stage state, and its minus table is
    complete otherwise.
    """
    rng = random.Random(5)
    states = []
    for n in (3, 4):
        for density in (0.0, 0.15, 0.3, 0.5, 1.0):
            for _ in range(12):
                minus = random_start(rng, n, density)
                states.append((minus, None))
                complete_minus = [
                    [rng.randrange(n) if t is None else t for t in row] for row in minus
                ]
                states.append((complete_minus, random_start(rng, n, density)))
    out = []
    for minus, restrict in states:
        table = minus if restrict is None else restrict
        n = len(table)
        free = [(a, b) for a in range(n) for b in range(n) if table[a][b] is None]
        rng.shuffle(free)
        out.append((minus, restrict, free))
    return out


START_LIMIT = 3_000


def run_fill(fill, make_check, minus, restrict, free):
    """Run one fill loop from a copy of the state, with no symmetry cut:
    nodes, the complete tables reached in order, and whether the node
    limit stopped it."""
    minus = [row[:] for row in minus]
    restrict = None if restrict is None else [row[:] for row in restrict]
    table = minus if restrict is None else restrict
    counter, reached = [0], []

    def complete():
        reached.append(tuple(map(tuple, table)))

    try:
        check, cuts = make_check(minus, restrict), [()] * len(free)
        fill(table, free, check, cuts, counter, START_LIMIT, complete)
        stopped = False
    except _NodeLimit:
        stopped = True
    return counter[0], reached, stopped


def full_scan(minus, restrict):
    n = len(minus)
    if restrict is None:
        return lambda: _laws_on_partial_minus(minus, n)
    return lambda: _laws_on_partial_restrict(minus, restrict, n)


def incremental(minus, restrict):
    minus_check, restrict_check = oracle._cell_checks()
    return (minus_check if restrict is None else restrict_check)(minus, restrict)


def start_state_outcomes():
    """Per start state, the outcomes of the reference and the incremental fill."""
    return [
        (
            run_fill(reference_fill, full_scan, *state),
            run_fill(oracle._fill_cells, incremental, *state),
        )
        for state in start_states()
    ]


def test_fill_matches_reference_from_arbitrary_start_states():
    outcomes = start_state_outcomes()
    assert all(want == got for want, got in outcomes)
    # both stages, states that violate a known instance, and states that
    # reach complete tables are all present
    states = start_states()
    assert any(restrict is None for _, restrict, _ in states)
    assert any(restrict is not None for _, restrict, _ in states)
    assert any(want[0] == 1 and free for (want, _), (_, _, free) in zip(outcomes, states))
    assert sum(len(want[1]) for want, _ in outcomes) > 100


class Unknown(Exception):
    pass


def spec_check(laws, target):
    """The definition of the cell check of ``laws`` in the stage that
    fills ``target``, as a map from the tables to ``check(x, y)``: whether
    every instance that reads the cell (x, y) of ``target``, and reads no
    unknown cell, holds.  An instance holds unless each antecedent
    ``p <= q`` holds and the claim fails.  It reads the cells of its sides
    and of the meets that decide ``<=``.  While minus fills, its laws read
    meet(a, b) as the two minus cells a - (a - b); once it is complete,
    the restrict laws read meet from the complete table."""

    def bind(minus, restrict):
        tables = {"minus": minus, "restrict": restrict}
        failing = set()  # the cells that some failing instance reads

        def cell(op, a, b, reads):
            if op == "meet" and target == "minus":
                return cell("minus", a, cell("minus", a, b, reads), reads)
            if op == "meet":
                return minus[a][minus[a][b]]
            if tables[op][a][b] is None:
                raise Unknown
            if op == target:
                reads.add((a, b))
            return tables[op][a][b]

        def evaluate(term, env, reads):
            if isinstance(term, str):
                return env[term]
            return cell(term[0], evaluate(term[1], env, reads), evaluate(term[2], env, reads), reads)

        def below(a, b, reads):
            return cell("meet", a, b, reads) == a

        for law in laws:
            for values in itertools.product(range(len(minus)), repeat=len(law.varnames)):
                env, reads = {"0": 0, **dict(zip(law.varnames, values))}, set()
                try:
                    given = [below(env[p], env[q], reads) for p, q in law.antecedents]
                    lhs, rhs = evaluate(law.lhs, env, reads), evaluate(law.rhs, env, reads)
                    claim = lhs == rhs if law.relation == "=" else below(lhs, rhs, reads)
                except Unknown:
                    continue
                if all(given) and not claim:
                    failing |= reads
        return lambda x, y: (x, y) not in failing

    return bind


def stage(law) -> str:
    """The table whose fill checks ``law``: restrict if the law reads it."""
    return "restrict" if "restrict" in repr((law.lhs, law.rhs)) else "minus"


# Shapes the library's laws do not use, each true in every model: "<="
# and an antecedent while minus fills, and an antecedent on "=".
EXTRA_LAWS = [
    parse_law(text, varnames, text)
    for varnames, text in (("ab", "a & b <= b"), ("ab", "a <= b => a - b == 0"),
                           ("ab", "a <= b => a |> b == a"))
]

# Each stage's laws, as the enumerator checks them, and each law alone.
CHECKED_LAW_SETS = [("minus", SUBTRACTION_LAWS), ("restrict", AXIOM_LAWS[3:])] + [
    (stage(law), (law,)) for law in [*LAW_TABLE.values(), *EXTRA_LAWS]
]


def cell_check_cases():
    """Partial tables of sizes 2-4 for both stages, as (minus, restrict):
    random ones, and models with cells blanked and one cell changed."""
    rng = random.Random(14)
    models = [m for n in (2, 3, 4) for m in reference_enumerate_axiom_models(n).models]
    cases = []
    for n in (2, 3, 4):
        for density in (0.3, 0.6, 0.9, 1.0):
            for _ in range(6):
                minus = random_start(rng, n, density)
                cases.append((minus, None))
                full = [[rng.randrange(n) if t is None else t for t in row] for row in minus]
                cases.append((full, random_start(rng, n, density)))
    for model in models * 4:
        n = model.size
        tables = [[list(row) for row in t] for t in (model.minus, model.restrict)]
        a, b = rng.randrange(n), rng.randrange(n)
        tables[rng.randrange(2)][a][b] = rng.randrange(n)
        stage = rng.randrange(2)
        for row in tables[stage]:
            for j in range(n):
                if rng.random() < 0.3:
                    row[j] = None
        cases.append((tables[0], tables[1] if stage else None))
    return cases


def cell_check_outcomes():
    """Per known cell of each case of its stage, for each set of checked
    laws: its name, the compiled check's answer and the definition's."""
    cases = cell_check_cases()
    outcomes = []
    for target, laws in CHECKED_LAW_SETS:
        name = " ".join(law.name for law in laws)
        compiled, spec = oracle._cell_check(laws, target), spec_check(laws, target)
        for minus, restrict in cases:
            table = minus if restrict is None else restrict
            if (table is minus) != (target == "minus"):
                continue
            check, want = compiled(minus, restrict), spec(minus, restrict)
            for x, y in itertools.product(range(len(minus)), repeat=2):
                if table[x][y] is not None:
                    outcomes.append((name, check(x, y), want(x, y)))
    return outcomes


def test_cell_checks_match_their_definition():
    outcomes = cell_check_outcomes()
    assert [o for o in outcomes if o[1] != o[2]] == []
    # every law set, with cells that pass and cells that fail
    counts = collections.Counter((name, want) for name, _, want in outcomes)
    names = {" ".join(law.name for law in laws) for _, laws in CHECKED_LAW_SETS}
    assert set(counts) == {(name, want) for name in names for want in (True, False)}
    assert min(counts.values()) > 100, counts


def test_cell_checks_refuse_what_they_cannot_read():
    # A stage's table read at one variable twice, and at 0.
    for name, varnames, text, target in (
        ("twice", "a", "a |> a == a", "restrict"),
        ("at zero", "ab", "0 <= a - b", "minus"),
    ):
        with pytest.raises(ValueError, match=f"law {name}: {target} has an operand 0 or repeated"):
            oracle._cell_check([parse_law(name, varnames, text)], target)


def every_permutation(varnames, equations):
    return [dict(zip(varnames, p)) for p in itertools.permutations(varnames)]


SCAN, READ = oracle._scan, oracle._read


def no_reverse_lookup(stage):
    """A ``_scan`` that disables the scans with a reverse lookup, which
    read the cell through a compound operand, in the stage filling ``stage``."""

    def scan(varnames, equations, occ, target):
        key, lines = SCAN(varnames, equations, occ, target)
        if target != stage or all(operand in varnames for operand in occ[1:]):
            return key, lines
        return key, ["if False:", *lines]

    return scan


def read_order_as_equality(law):
    """A ``_read`` that compares the sides of a ``<=`` claim for equality."""
    (_, *guards), above = READ(law)
    return [(law.lhs, law.rhs), *guards], above


def read_no_guards(law):
    """A ``_read`` that drops the antecedents' guards."""
    equations, above = READ(law)
    return equations[:1], above


MUTANTS = {
    "no minus reverse lookup": ("_scan", no_reverse_lookup("minus")),
    "no restrict reverse lookup": ("_scan", no_reverse_lookup("restrict")),
    "every variable permutation counted as a symmetry": ("_symmetries", every_permutation),
    "no check of the known cells": ("_known_cells_ok", lambda *args: True),
    "<= read as =": ("_read", read_order_as_equality),
    "guards dropped": ("_read", read_no_guards),
    "no symmetry cut": ("_cuts", lambda free, group: [()] * len(free)),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_comparison_catches_mutants(mutant, monkeypatch):
    name, replacement = MUTANTS[mutant]
    monkeypatch.setattr(oracle, name, replacement)
    # compile the mutated checks into a cache that the monkeypatch discards
    monkeypatch.setattr(oracle, "_cell_checks", cache(oracle._cell_checks.__wrapped__))
    assert (
        mismatches((n, DEFAULT_BUDGET.node_limit) for n in FULL)
        or any(want != got for want, got in start_state_outcomes())
        or any(got != want for _, got, want in cell_check_outcomes())
    )


def test_a_dropped_automorphism_admits_an_isomorphic_copy(monkeypatch):
    # Without its first automorphism other than the identity, the restrict
    # stage's cut keeps two restrict tables of one class at size 5, and
    # prunes later at size 4: the same catalog in more nodes.
    mutant = source_mutant(
        oracle, ("enumerate_axiom_models",),
        "_cuts(free_restrict, automorphisms)", "_cuts(free_restrict, automorphisms[1:])",
    )
    models = mutant(5).models
    assert (len(models), len({reference_canonical_form(m) for m in models})) == (8, 7)
    monkeypatch.setattr(oracle, "enumerate_axiom_models", mutant)
    limit = DEFAULT_BUDGET.node_limit
    assert mismatches((n, limit) for n in FULL) == [(4, limit), (5, limit)]


def test_comparison_catches_a_dropped_minus_relabeling(monkeypatch):
    # Without its first relabeling other than the identity, the minus
    # stage's cut prunes later: the same catalogs in more nodes.
    mutant = source_mutant(
        oracle, ("enumerate_axiom_models",),
        "_cuts(free_minus, group)", "_cuts(free_minus, group[1:])",
    )
    monkeypatch.setattr(oracle, "enumerate_axiom_models", mutant)
    limit = DEFAULT_BUDGET.node_limit
    assert mismatches((n, limit) for n in FULL) == [(4, limit), (5, limit)]


def render_models(catalog: ModelCatalog) -> str:
    """What ``diffrest search models`` printed with the reference enumerator."""
    out = []
    for i, model in enumerate(catalog.models):
        out.append(f"MODEL {i}\n")
        out.append(serialize_algebra(model))
    token = "PASS" if catalog.exhaustive else "INCONCLUSIVE"
    out.append(
        f"{token} models size={catalog.size} count={len(catalog.models)} "
        f"exhaustive={'yes' if catalog.exhaustive else 'no'} nodes={catalog.nodes}\n"
    )
    return "".join(out)


@pytest.mark.parametrize(
    "n, limit", [(1, None), (2, None), (3, None), (4, None), (5, None), (5, 50)]
)
def test_search_models_output_is_byte_stable(n, limit):
    argv = ["search", "models", "--size", str(n)]
    if limit is not None:
        argv += ["--node-limit", str(limit)]
    result = run_cli(*argv)
    catalog = reference_enumerate_axiom_models(
        n, SearchBudget(node_limit=limit or DEFAULT_BUDGET.node_limit)
    )
    assert result.stdout == render_models(catalog)
    assert result.returncode == (0 if catalog.exhaustive else 3)
    assert result.stderr == ""
