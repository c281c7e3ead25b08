"""The canonical trace search against the searches it replaced.

``reference_valid_columns`` is the plan-driven loop that the canonical
search replaced, kept verbatim: it tries every value of every free
generator.  It is the reference for the columns, the node counter and
the node limit.  ``product_valid_columns`` is the loop before it, kept
verbatim as an independent oracle for the columns: it enumerates every
combination of generator values and only then propagates it through the
tables.  ``reference_separation_masks`` is the pair walk that the
row-shift masks replaced.  The search must return the identical columns
in the identical order and the identical node count, and
``brute_force_embedding`` the identical verdict and assignment.
"""

import dataclasses
import itertools
import random
from typing import Sequence

import pytest

from conftest import build_corpus, make_f0, make_f1, make_f2, make_f3, make_f4, make_n1

from diffrest import (
    FiniteAlgebra,
    InconsistencyError,
    SearchBudget,
    boolean_as_diffrest,
    brute_force_embedding,
    check_axioms,
    close_generators,
    enumerate_axiom_models,
    generating_set,
    random_generators,
)
from diffrest import oracle
from diffrest.oracle import _NodeLimit, _propagation_plan, _valid_columns


def reference_valid_columns(
    alg: FiniteAlgebra, gens: Sequence[int], m: int, counter: list[int], limit: int
) -> list[tuple[int, ...]]:
    """Enumerate consistent point traces: element -> 0 (undefined) or value.

    Generators are assigned one at a time, values in ascending order; each
    value is propagated and checked through the plan, and a clash prunes
    the prefix.  Traces come out in lexicographic order of the generator
    values, as full tuples.
    """
    plan = _propagation_plan(alg, gens)
    tau = [0] * alg.size
    columns: list[tuple[int, ...]] = []
    values = range(m + 1)

    def assign(k: int) -> None:
        if k == len(plan):
            columns.append(tuple(tau))
            return
        level = plan[k]
        g, free, derive, checks = level.gen, level.free, level.derive, level.checks
        for v in values:
            counter[0] += 1
            if counter[0] > limit:
                raise _NodeLimit
            if free:
                tau[g] = v
            elif tau[g] != v:
                continue
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
                assign(k + 1)

    assign(0)
    return columns


def product_valid_columns(
    alg: FiniteAlgebra, gens: Sequence[int], m: int, counter: list[int], limit: int
) -> list[tuple[int, ...]]:
    """Enumerate consistent point traces: element -> 0 (undefined) or value.

    A trace is propagated from generator values through the tables; any
    clash kills the candidate.  Traces are returned as full tuples.
    """
    n = alg.size
    minus, restrict = alg.minus, alg.restrict
    columns: list[tuple[int, ...]] = []
    for combo in itertools.product(range(m + 1), repeat=len(gens)):
        counter[0] += 1
        if counter[0] > limit:
            raise _NodeLimit
        tau: list[int | None] = [None] * n
        known: list[int] = []
        ok = True

        def put(e: int, v: int) -> bool:
            if tau[e] is None:
                tau[e] = v
                known.append(e)
                return True
            return tau[e] == v

        for g, v in zip(gens, combo):
            if not put(g, v):
                ok = False
                break
        if not ok:
            continue
        qi = 0
        while ok and qi < len(known):
            e = known[qi]
            qi += 1
            snapshot = len(known)
            for idx in range(snapshot):
                x = known[idx]
                te, tx = tau[e], tau[x]
                # pair (e, x)
                v = te if (te != 0 and tx != te) else 0
                if not put(minus[e][x], v):
                    ok = False
                    break
                v = tx if te != 0 else 0
                if not put(restrict[e][x], v):
                    ok = False
                    break
                # pair (x, e)
                v = tx if (tx != 0 and te != tx) else 0
                if not put(minus[x][e], v):
                    ok = False
                    break
                v = te if tx != 0 else 0
                if not put(restrict[x][e], v):
                    ok = False
                    break
        if not ok:
            continue
        if any(t is None for t in tau):
            raise InconsistencyError("generating set failed to reach every element")
        columns.append(tuple(tau))
    return columns


def reference_separation_masks(columns, n, m):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_pos = {p: k for k, p in enumerate(pairs)}
    sep_masks = []
    for col in columns:
        mask = 0
        for (i, j), k in pair_pos.items():
            if col[i] != col[j]:
                mask |= 1 << k
        sep_masks.append(mask)
    return sep_masks


def relabel(alg, sigma):
    """The tables of ``alg`` with element ``a`` renamed ``sigma[a]``."""
    inv = [0] * alg.size
    for old, new in enumerate(sigma):
        inv[new] = old
    minus = [[sigma[alg.minus[x][y]] for y in inv] for x in inv]
    restrict = [[sigma[alg.restrict[x][y]] for y in inv] for x in inv]
    return FiniteAlgebra.from_tables(minus, restrict)


def relabel_until(alg, seed, n_gens):
    """Shuffle the element ids with a seeded generator until the greedy
    generating set has ``n_gens`` elements."""
    rng = random.Random(seed)
    sigma = list(range(alg.size))
    while True:
        rng.shuffle(sigma)
        out = relabel(alg, sigma)
        if len(generating_set(out)) == n_gens:
            return out


def seed1_closure():
    """The seed-1 closure of 6 random generators on 6 points (36 elements)."""
    base = range(1, 7)
    return close_generators(base, random_generators(random.Random(1), base, 6)).abstract


def base_size(alg):
    """The differential rule: atoms for a model, 3 points otherwise."""
    return len(alg.order_atoms()) if check_axioms(alg).passed else 3


def small_algebras():
    out = [make_f0()] + [f().abstract for f in (make_f1, make_f2, make_f3, make_f4)]
    out.append(make_n1()[0])
    for n in range(1, 6):
        out.extend(enumerate_axiom_models(n).models)
    return out


@pytest.fixture(scope="module")
def small():
    algebras = small_algebras()
    assert len(algebras) == 6 + 15
    return algebras


@pytest.fixture(scope="module")
def corpus():
    return [conc.abstract for conc in build_corpus()]


@pytest.fixture(scope="module")
def large():
    """The two algebras of the benchmark's ``large`` workload at seed 1:
    the 64-element powerset and the seed-1 closure relabeled to keep a
    5-element generating set."""
    return [boolean_as_diffrest(6).abstract, relabel_until(seed1_closure(), 1, 5)]


def outcome(search, alg, gens, m, limit=10**9):
    """The columns a trace search returns, or "limit" when it runs out of
    nodes, with its node counter."""
    counter = [0]
    try:
        return search(alg, gens, m, counter, limit), counter[0]
    except _NodeLimit:
        return "limit", counter[0]


def reference_columns_and_masks(alg, gens, m, counter, limit):
    columns = reference_valid_columns(alg, gens, m, counter, limit)
    return columns, reference_separation_masks(columns, alg.size, m)


def reference_embedding(alg, budget):
    """``brute_force_embedding`` over the reference columns, masks and
    node counter, with the unchanged cover search."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_columns_and_masks", reference_columns_and_masks)
        return brute_force_embedding(alg, budget)


def assert_same_columns(alg):
    """The new search gives the reference columns, node count and masks;
    returns the columns."""
    gens = generating_set(alg)
    m = base_size(alg)
    expected = product_valid_columns(alg, gens, m, [0], 10**9)
    want = outcome(reference_valid_columns, alg, gens, m)
    assert want[0] == expected
    assert outcome(_valid_columns, alg, gens, m) == want
    masks = reference_separation_masks(expected, alg.size, m)
    assert oracle._separation_masks(expected, alg.size, m) == masks
    assert oracle._columns_and_masks(alg, gens, m, [0], 10**9) == (expected, masks)
    return expected


def assert_same_as_reference(algebras, monkeypatch):
    """Columns, masks, verdict and assignment all match the old search.

    The reference embedding runs the unchanged cover search over the
    reference columns and pair-walk masks.  Returns the verdicts.
    """
    verdicts = []
    for alg in algebras:
        expected = assert_same_columns(alg)
        m = base_size(alg)
        budget = SearchBudget(max_base_size=m, node_limit=5_000_000)
        got = brute_force_embedding(alg, budget)
        masks = reference_separation_masks(expected, alg.size, m)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_columns_and_masks", lambda *args: (expected, masks))
            want = brute_force_embedding(alg, budget)
        assert (got.verdict, got.assignment) == (want.verdict, want.assignment)
        assert 0 < got.trace_nodes < got.nodes
        verdicts.append(got.verdict)
    return verdicts


def test_search_matches_reference_on_small_algebras(small, monkeypatch):
    verdicts = assert_same_as_reference(small, monkeypatch)
    # N1, the relational non-model, is the only one without an embedding
    assert verdicts == ["found"] * 5 + ["none"] + ["found"] * 15


def test_search_matches_reference_on_acceptance_corpus(corpus, monkeypatch):
    assert assert_same_as_reference(corpus, monkeypatch) == ["found"] * 200


def test_search_matches_reference_on_large_algebras(large, monkeypatch):
    assert assert_same_as_reference(large, monkeypatch) == ["found"] * 2


def test_nodes_split_between_traces_and_cover(f2):
    result = brute_force_embedding(f2.abstract, SearchBudget(max_base_size=2))
    assert result.found
    assert 0 < result.trace_nodes < result.nodes
    # a budget that ends inside the cover search keeps the trace count
    cover = brute_force_embedding(
        f2.abstract, SearchBudget(max_base_size=2, node_limit=result.trace_nodes)
    )
    assert cover.verdict == "inconclusive"
    assert cover.trace_nodes == result.trace_nodes
    assert cover.nodes == result.trace_nodes + 1
    # one that ends inside trace enumeration spends every node there
    traces = brute_force_embedding(
        f2.abstract, SearchBudget(max_base_size=2, node_limit=result.trace_nodes - 1)
    )
    assert traces.verdict == "inconclusive"
    assert traces.nodes == traces.trace_nodes == result.trace_nodes


def test_determined_generator_is_checked_not_chosen(small):
    # An element already determined by earlier generators takes each
    # value in turn, and only its determined value survives.
    for alg in small:
        gens = generating_set(alg)
        for extra in (gens[0], alg.zero):
            padded = (*gens, extra)
            m = base_size(alg)
            expected = product_valid_columns(alg, padded, m, [0], 10**9)
            assert _valid_columns(alg, padded, m, [0], 10**9) == expected


def test_large_node_counts_are_pinned(large):
    counts = []
    for alg in large:
        result = brute_force_embedding(
            alg, SearchBudget(max_base_size=len(alg.order_atoms()))
        )
        counts.append((result.verdict, result.nodes, result.trace_nodes))
    assert counts == [("found", 679, 672), ("found", 62_316, 62_309)]


def test_budget_one_below_the_trace_nodes_ends_in_the_trace_phase(small, corpus, large):
    # The limit is passed only by the last value that the full trace
    # search tries, after every fresh-value copy has been counted.
    for alg in [*small, *corpus, *large]:
        gens = generating_set(alg)
        m = base_size(alg)
        _, total = outcome(reference_valid_columns, alg, gens, m)
        expected = ("limit", total)
        assert outcome(reference_valid_columns, alg, gens, m, total - 1) == expected
        assert outcome(_valid_columns, alg, gens, m, total - 1) == expected
        if total > 1:
            budget = SearchBudget(max_base_size=m, node_limit=total - 1)
            got = brute_force_embedding(alg, budget)
            assert got == reference_embedding(alg, budget)
            assert (got.verdict, got.nodes, got.trace_nodes) == (
                "inconclusive", total, total
            )


def test_base_sizes_where_the_fresh_value_copies_differ(small):
    # At base 0 no value is fresh, at base 1 the fresh value stands only
    # for itself, and from 2 points on each fresh subtree stands for several.
    # Padding with a determined generator adds a level with no choice.
    below_atoms = []
    for alg in small:
        gens = generating_set(alg)
        atoms = len(alg.order_atoms())
        for m in sorted({0, 1, max(atoms - 1, 0), atoms + 2}):
            for padded in (gens, (*gens, gens[0]), (*gens, alg.zero)):
                want = outcome(reference_valid_columns, alg, padded, m)
                assert outcome(_valid_columns, alg, padded, m) == want
                assert want[0] == product_valid_columns(alg, padded, m, [0], 10**9)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(oracle, "generating_set", lambda alg: padded)
                    budget = SearchBudget(max_base_size=m)
                    got = brute_force_embedding(alg, budget)
                    assert got == reference_embedding(alg, budget)
                if m == atoms - 1:
                    below_atoms.append(got.verdict)
    assert "none" in below_atoms and "found" in below_atoms


def test_generating_set_must_reach_every_element(f2):
    alg = f2.abstract
    with pytest.raises(InconsistencyError, match="failed to reach every element"):
        oracle._propagation_plan(alg, [alg.zero])


def test_seven_generator_relabeling_is_found_under_the_default_budget():
    # The greedy generating set depends on element ids.  A relabeling of
    # the seed-1 closure with 7 generators had 13**7 trace candidates,
    # far past the default node limit, and was inconclusive.
    alg = relabel_until(seed1_closure(), 0, 7)
    atoms = len(alg.order_atoms())
    assert (atoms + 1) ** 7 > SearchBudget().node_limit
    result = brute_force_embedding(alg, SearchBudget(max_base_size=atoms))
    assert result.found
    assert result.nodes < 100_000


# Each mutant corrupts the plan; the comparison with the reference must
# notice it on the small algebras.


def _drop_last_checks(plan):
    *head, last = plan
    return (*head, dataclasses.replace(last, checks=()))


def _swap_derive_ops(plan):
    return tuple(
        dataclasses.replace(
            level, derive=tuple((c, 1 - op, a, b) for c, op, a, b in level.derive)
        )
        for level in plan
    )


def _swap_check_ops(plan):
    return tuple(
        dataclasses.replace(
            level, checks=tuple((c, 1 - op, a, b) for c, op, a, b in level.checks)
        )
        for level in plan
    )


@pytest.mark.parametrize(
    "mutate", [_drop_last_checks, _swap_derive_ops, _swap_check_ops]
)
def test_reference_comparison_catches_plan_mutants(small, mutate, monkeypatch):
    build = oracle._propagation_plan
    monkeypatch.setattr(oracle, "_propagation_plan", lambda alg, gens: mutate(build(alg, gens)))
    with pytest.raises(AssertionError):
        for alg in small:
            assert_same_columns(alg)
