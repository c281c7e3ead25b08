"""Model enumeration that checks only the law instances reading each new cell.

``reference_enumerate_axiom_models`` is the enumerator that re-scanned
every law instance after each filled cell, kept verbatim with its two
scans ``_laws_on_partial_minus`` and ``_laws_on_partial_restrict`` as
the oracle.  The incremental search must visit the same nodes, so it
must return the identical models, in the identical order, with the
identical node count and ``exhaustive`` flag, also when a node limit
stops it inside either stage.  ``reference_fill`` is the same fill loop
for one table, so that the two searches can also be compared from
start states the enumerator never seeds, including violated ones.
"""

import random
import subprocess
import sys
from functools import lru_cache, partial

import pytest

from diffrest import (
    FiniteAlgebra,
    InconsistencyError,
    SearchBudget,
    canonical_form,
    check_axioms,
    enumerate_axiom_models,
    serialize_algebra,
)
from diffrest import oracle
from diffrest.oracle import DEFAULT_BUDGET, ModelCatalog, _NodeLimit


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


def reference_enumerate_axiom_models(
    n: int, budget: SearchBudget = DEFAULT_BUDGET
) -> ModelCatalog:
    """All law-abiding algebras of a given size, up to isomorphism.

    Backtracks over the two tables with the forced cells seeded (bottom
    fixed at element 0) and the laws re-checked as cells fill; complete
    models are deduplicated by canonical form.
    """
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
            found.setdefault(canonical_form(alg), alg)
            return
        a, b = free_restrict[k]
        for v in range(n):
            restrict[a][b] = v
            if _laws_on_partial_restrict(minus, restrict, n):
                fill_restrict(k + 1)
            restrict[a][b] = None

    def fill_minus(k: int) -> None:
        counter[0] += 1
        if counter[0] > budget.node_limit:
            raise _NodeLimit
        if k == len(free_minus):
            fill_restrict(0)
            return
        a, b = free_minus[k]
        for v in range(n):
            minus[a][b] = v
            if _laws_on_partial_minus(minus, n):
                fill_minus(k + 1)
            minus[a][b] = None

    exhaustive = True
    try:
        fill_minus(0)
    except _NodeLimit:
        exhaustive = False

    models = tuple(found[key] for key in sorted(found))
    return ModelCatalog(n, models, exhaustive, counter[0])


def reference_fill(table, free, laws_hold, counter, limit, complete) -> None:
    """The reference enumerator's fill loop for one table: every value
    is followed by a full re-scan, ``laws_hold()``."""
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
            got = catalog_key(enumerate_axiom_models(n, SearchBudget(node_limit=limit)))
        except InconsistencyError as err:
            got = str(err)
        if got != reference_key(n, limit):
            out.append((n, limit))
    return out


# Node counts of the exhaustive sweeps, pinned in tests/test_acceptance.py.
FULL = {1: 2, 2: 3, 3: 11, 4: 133, 5: 5314}

# A limit L stops the search at node L + 1.  At size 4 the minus stage
# counts nodes 1-11, 28-34, 48-55 and 105-111 and the restrict stage the
# rest, so the limits stop at every node of both stages.  At size 5 the
# first restrict stage counts nodes 49-223, and 224-239, 4033-4068 and
# 5299-5314 are minus nodes; the limits stop at the first restrict node
# (whose check of the seeded cells is the first), in the middle and at
# the ends of restrict stages, and in the minus stage.
SIZE_FOUR_LIMITS = range(1, FULL[4] + 2)
SIZE_FIVE_LIMITS = (1, 2, 48, 49, 50, 223, 224, 1000, 2217, 3245, 4033, 5298, 5299, 5313)


def test_exhaustive_sweeps_match_reference():
    assert mismatches((n, DEFAULT_BUDGET.node_limit) for n in FULL) == []
    for n, nodes in FULL.items():
        assert reference_key(n, DEFAULT_BUDGET.node_limit)[2] == nodes


def test_every_node_limit_at_size_four_matches_reference():
    assert mismatches((4, limit) for limit in SIZE_FOUR_LIMITS) == []
    assert reference_key(4, 132)[3] is False
    assert reference_key(4, 133)[3] is True


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
    """Run one fill loop from a copy of the state: nodes, the complete
    tables reached in order, and whether the node limit stopped it."""
    minus = [row[:] for row in minus]
    restrict = None if restrict is None else [row[:] for row in restrict]
    table = minus if restrict is None else restrict
    counter, reached = [0], []

    def complete():
        reached.append(tuple(map(tuple, table)))

    try:
        fill(table, free, make_check(minus, restrict), counter, START_LIMIT, complete)
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
    if restrict is None:
        return partial(oracle._minus_cell_ok, minus)
    meet = [[minus[a][minus[a][b]] for b in range(len(minus))] for a in range(len(minus))]
    return partial(oracle._restrict_cell_ok, meet, restrict)


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


MUTANTS = {
    "no minus reverse lookup": ("_minus_outer_ok", lambda *args: True),
    "no restrict reverse lookup": ("_restrict_outer_ok", lambda *args: True),
    "no check of the known cells": ("_known_cells_ok", lambda *args: True),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_comparison_catches_mutants(mutant, monkeypatch):
    name, replacement = MUTANTS[mutant]
    monkeypatch.setattr(oracle, name, replacement)
    assert mismatches((n, DEFAULT_BUDGET.node_limit) for n in FULL) or any(
        want != got for want, got in start_state_outcomes()
    )


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "diffrest", *argv], capture_output=True, text=True
    )


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
