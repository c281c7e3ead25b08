"""The canonical trace search against the searches it replaced.

``reference_valid_columns`` is the specification of the trace search:
the plan-driven loop that the canonical search replaced, kept verbatim.
It tries every value of every free generator, through
``reference_propagation_plan``, the plan as it was before its levels
were checked as whole byte tables (every equation that is not a
derivation is a check at the one level where it becomes known).  At
every base size from 0 to two past the atom count, the canonical
traces, expanded into every relabeling, must give its columns in order,
its masks and its node counter, and a budget one node short must stop
them at that counter; on the perturbed small and corpus copies, at the
differential base size only.  Only the seed-1 closure at bases 7 to 14,
where the loop walks 7,264 to 115,365 nodes, is compared with pinned
traces, masks and counters instead.  ``product_valid_columns`` is the loop
before it, kept verbatim as an independent oracle for the columns: it
enumerates every combination of generator values and only then
propagates it through the tables.  ``reference_separation_masks`` is
the pair walk that the row-shift masks replaced.
``reference_generating_set`` is the greedy choice before its closure
went semi-naive, kept verbatim: each round re-combines every pair of the
closed set; it must choose the identical generators.
``reference_expansion`` and ``reference_cover_search`` are the cover
search before it went lazy, kept verbatim: every relabeling of every
canonical trace is listed, sorted and walked by index.  Over the least
relabeling of each trace (``least_columns_and_masks``),
``brute_force_embedding`` must give the identical result, node counts
included, at every node limit; over every relabeling, the identical
verdict, assignment and trace count in no more nodes.
"""

import dataclasses
import hashlib
import itertools
import operator
import random
from typing import Sequence

import pytest

from conftest import relabel_until, search_outcome

from diffrest import (
    EmbeddingResult,
    FiniteAlgebra,
    InconsistencyError,
    PartialFunction,
    Representation,
    SearchBudget,
    brute_force_embedding,
    check_axioms,
    generating_set,
    verify_representation,
)
from diffrest import oracle
from diffrest.algebra import mask_iter
from diffrest.oracle import (
    _MINUS,
    _RESTRICT,
    _NodeLimit,
    _columns_and_masks,
)
from lemmas import relabel


def _valid_columns(alg, m, counter, limit) -> list[tuple[int, ...]]:
    """Every relabeling of the canonical traces, sorted by generator
    values, without their masks."""
    return expanded_columns_and_masks(alg, m, counter, limit)[0]


def reference_expansion(traces, trace_masks, gens, m):
    """The columns and masks that the search listed before its cover
    search went lazy: all relabelings of the canonical traces, in
    lexicographic order of the generator values, each with its trace's
    mask."""
    points = range(1, m + 1)
    relabeled = [
        (tuple([sigma[v] for v in trace]), mask)
        for trace, mask in zip(traces, trace_masks)
        for sigma in map((0,).__add__, itertools.permutations(points, max(trace)))
    ]
    by_gens = operator.itemgetter(*gens)
    relabeled.sort(key=lambda pair: by_gens(pair[0]))
    return [col for col, _ in relabeled], [mask for _, mask in relabeled]


def expanded_columns_and_masks(alg, m, counter, limit):
    traces_and_masks = _columns_and_masks(alg, m, counter, limit)
    return reference_expansion(*traces_and_masks, generating_set(alg), m)


def least_columns_and_masks(alg, m, counter, limit):
    """The expanded columns, one per trace: the least of its
    relabelings, found by listing them all."""
    columns, masks = expanded_columns_and_masks(alg, m, counter, limit)
    seen: set[tuple[int, ...]] = set()
    least, least_masks = [], []
    for col, mask in zip(columns, masks):
        if col not in seen:
            values = sorted(set(col) - {0})
            every = {
                tuple([dict(zip(values, sigma)).get(v, 0) for v in col])
                for sigma in itertools.permutations(range(1, m + 1), len(values))
            }
            seen |= every
            least.append(min(every))
            least_masks.append(mask)
    return least, least_masks


def reference_cover_search(alg, budget, columns_and_masks=expanded_columns_and_masks):
    """``brute_force_embedding`` with the index-based cover search it had
    before it went lazy, kept verbatim: every listed column is sorted by
    (-popcount of its mask, column) up front.  ``columns_and_masks``
    lists the columns, by default the expansion of the canonical traces."""
    n = alg.size
    m = budget.max_base_size
    counter = [0]
    all_pairs_mask = (1 << (n * (n - 1) // 2)) - 1

    try:
        columns, sep_masks = columns_and_masks(alg, m, counter, budget.node_limit)
    except _NodeLimit:
        return EmbeddingResult("inconclusive", None, m, counter[0], counter[0])
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


@dataclasses.dataclass(frozen=True)
class ReferencePlanLevel:
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


def reference_propagation_plan(
    alg: FiniteAlgebra, gens: Sequence[int]
) -> tuple[ReferencePlanLevel, ...]:
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
        levels.append(ReferencePlanLevel(g, free, tuple(derive), tuple(checks)))
    if len(known) < n:
        raise InconsistencyError("generating set failed to reach every element")
    return tuple(levels)


def reference_valid_columns(
    alg: FiniteAlgebra, gens: Sequence[int], m: int, counter: list[int], limit: int
) -> list[tuple[int, ...]]:
    """Enumerate consistent point traces: element -> 0 (undefined) or value.

    Generators are assigned one at a time, values in ascending order; each
    value is propagated and checked through the plan, and a clash prunes
    the prefix.  Traces come out in lexicographic order of the generator
    values, as full tuples.
    """
    plan = reference_propagation_plan(alg, gens)
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


def reference_generating_set(alg: FiniteAlgebra) -> tuple[int, ...]:
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


def base_size(alg):
    """The differential rule: atoms for a model, 3 points otherwise."""
    return len(alg.order_atoms()) if check_axioms(alg).passed else 3


def reference_columns_and_masks(alg, m, counter, limit):
    columns = reference_valid_columns(alg, generating_set(alg), m, counter, limit)
    return columns, reference_separation_masks(columns, alg.size, m)


def reference_embedding(alg, budget):
    """The reference cover search over the reference columns, masks and
    node counter."""
    return reference_cover_search(alg, budget, reference_columns_and_masks)


def assert_traces_match_the_reference(alg, m):
    """At base ``m``, the canonical traces, expanded, give the reference
    columns in order, with the pair walk's masks and the reference node
    counter, and a budget one node short of that counter stops them
    there; returns the columns."""
    gens = generating_set(alg)
    columns, total = search_outcome(reference_valid_columns, alg, gens, m)
    (traces, trace_masks), nodes = search_outcome(_columns_and_masks, alg, m)
    assert nodes == total
    assert trace_masks == reference_separation_masks(traces, alg.size, m)
    masks = reference_separation_masks(columns, alg.size, m)
    assert oracle._separation_masks(columns, alg.size, m) == masks
    assert reference_expansion(traces, trace_masks, gens, m) == (columns, masks)
    if total > 1:
        assert search_outcome(_columns_and_masks, alg, m, limit=total - 1) == ("limit", total)
    return columns


def assert_same_columns(alg):
    """At the differential base size the reference columns are also the
    product loop's; returns them."""
    m = base_size(alg)
    columns = assert_traces_match_the_reference(alg, m)
    assert columns == product_valid_columns(alg, generating_set(alg), m, [0], 10**9)
    return columns


def assert_same_search(got, alg, budget, every):
    """``got`` is the reference cover search over the least relabelings,
    node counts included, and has the verdict, assignment and trace count
    of ``every``, a search over every relabeling, in no more nodes."""
    assert got == reference_cover_search(alg, budget, least_columns_and_masks)
    assert (got.verdict, got.assignment, got.trace_nodes) == (
        every.verdict, every.assignment, every.trace_nodes
    )
    assert got.nodes <= every.nodes


def assert_same_as_reference(algebras):
    """Columns, masks, verdict and assignment all match the old search.

    The reference embedding runs the index-based cover search over the
    reference columns and pair-walk masks; the search must match the
    reference cover search over the expanded canonical traces as
    ``assert_same_search`` says.  Returns the verdicts.
    """
    verdicts = []
    for alg in algebras:
        expected = assert_same_columns(alg)
        m = base_size(alg)
        budget = SearchBudget(max_base_size=m, node_limit=5_000_000)
        got = brute_force_embedding(alg, budget)
        masks = reference_separation_masks(expected, alg.size, m)
        want = reference_cover_search(alg, budget, lambda *args: (expected, masks))
        assert (got.verdict, got.assignment) == (want.verdict, want.assignment)
        assert_same_search(got, alg, budget, reference_cover_search(alg, budget))
        assert 0 < got.trace_nodes < got.nodes
        verdicts.append(got.verdict)
    return verdicts


def test_search_matches_reference_on_small_algebras(small):
    verdicts = assert_same_as_reference(small)
    # N1, the relational non-model, is the only one without an embedding
    assert verdicts == ["found"] * 5 + ["none"] + ["found"] * 15


def test_search_matches_reference_on_acceptance_corpus(corpus):
    assert assert_same_as_reference(corpus) == ["found"] * 200


def test_search_matches_reference_on_large_algebras(large):
    assert assert_same_as_reference(large) == ["found"] * 2


def test_every_cover_cut_off_matches_the_reference(small):
    # Each limit from one past the trace phase to the full count stops
    # the cover search at a different node, or lets it finish.
    for alg in small:
        m = base_size(alg)
        full = brute_force_embedding(alg, SearchBudget(max_base_size=m))
        limits = range(full.trace_nodes + 1, full.nodes + 1)
        outcomes = []
        for limit in limits:
            budget = SearchBudget(max_base_size=m, node_limit=limit)
            got = brute_force_embedding(alg, budget)
            assert got == reference_cover_search(alg, budget, least_columns_and_masks)
            outcomes.append((got.verdict, got.nodes, got.trace_nodes))
        cut = [("inconclusive", limit + 1, full.trace_nodes) for limit in limits[:-1]]
        assert outcomes == [*cut, (full.verdict, full.nodes, full.trace_nodes)]


def test_powerset_one_point_short_is_none_under_the_default_budget(large):
    # Every relabeling of a trace separates the same pairs, so a failed
    # subtree is walked once, not once per relabeling: the 64-element
    # powerset at base 5 was inconclusive after 2,000,001 nodes.
    result = brute_force_embedding(large[0], SearchBudget(max_base_size=5))
    assert (result.verdict, result.nodes, result.trace_nodes) == ("none", 1_723, 486)


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


def test_large_node_counts_are_pinned(large):
    counts = []
    for alg in large:
        result = brute_force_embedding(
            alg, SearchBudget(max_base_size=len(alg.order_atoms()))
        )
        counts.append((result.verdict, result.nodes, result.trace_nodes))
    assert counts == [("found", 679, 672), ("found", 62_316, 62_309)]


@pytest.fixture(scope="module")
def seed1_relabelings(large_concrete):
    """The seed-1 closure and 20 seeded relabelings of it."""
    closure, rng = large_concrete[1].abstract, random.Random(4)
    return [closure, *(relabel(closure, rng.sample(range(36), 36)) for _ in range(20))]


def test_generating_set_matches_the_all_pairs_closure(
    small, corpus, large_concrete, seed1_relabelings
):
    # Not the ``large`` fixture: it relabels until ``generating_set`` has
    # 5 elements, which a broken closure may never reach.
    for alg in [*small, *corpus, large_concrete[0].abstract, *seed1_relabelings]:
        assert generating_set(alg) == reference_generating_set(alg)


def test_plan_levels_match_the_reference_plan(small, corpus, large, seed1_relabelings):
    # The walk that picks the generators emits the levels the reference
    # plan gives for them.  The reference lists no known elements: a
    # level makes its generator known, then each derived cell in order.
    for alg in [*small, *corpus, *large, *seed1_relabelings[1:]]:
        got = oracle._propagation_plan(alg)
        want = reference_propagation_plan(alg, generating_set(alg))
        assert len(got) == len(want)
        known = b""
        for level, ref in zip(got, want):
            assert ref.free
            known += bytes([ref.gen, *(cell for cell, *_ in ref.derive)])
            assert (level.gen, level.derive, level.known) == (ref.gen, ref.derive, known)


def test_budget_one_below_the_trace_nodes_ends_in_the_trace_phase(small, corpus, large):
    # The limit is passed only by the last value that the full trace
    # search tries, after every fresh-value copy has been counted.
    for alg in [*small, *corpus, *large]:
        m = base_size(alg)
        _, total = search_outcome(reference_valid_columns, alg, generating_set(alg), m)
        assert search_outcome(_valid_columns, alg, m, limit=total - 1) == ("limit", total)
        if total > 1:
            budget = SearchBudget(max_base_size=m, node_limit=total - 1)
            got = brute_force_embedding(alg, budget)
            assert got == EmbeddingResult("inconclusive", None, m, total, total)


def test_base_sizes_where_the_fresh_value_copies_differ(small):
    # At base 0 no value is fresh, at base 1 the fresh value stands only
    # for itself, and from 2 points on each fresh subtree stands for several.
    below_atoms = []
    for alg in small:
        gens = generating_set(alg)
        atoms = len(alg.order_atoms())
        for m in sorted({0, 1, max(atoms - 1, 0), atoms + 2}):
            want = search_outcome(reference_valid_columns, alg, gens, m)
            assert search_outcome(_valid_columns, alg, m) == want
            assert want[0] == product_valid_columns(alg, gens, m, [0], 10**9)
            budget = SearchBudget(max_base_size=m)
            got = brute_force_embedding(alg, budget)
            assert_same_search(got, alg, budget, reference_embedding(alg, budget))
            if m == atoms - 1:
                below_atoms.append(got.verdict)
    assert "none" in below_atoms and "found" in below_atoms


def test_relabel_until_gives_up_naming_the_seed_and_the_count(f2):
    with pytest.raises(AssertionError, match="in 1000 draws at seed 3 has 9 generators"):
        relabel_until(f2.abstract, 3, 9)


def test_seven_generator_relabeling_is_found_under_the_default_budget(large_concrete):
    # The greedy generating set depends on element ids.  A relabeling of
    # the seed-1 closure with 7 generators had 13**7 trace candidates,
    # far past the default node limit, and was inconclusive.
    alg = relabel_until(large_concrete[1].abstract, 0, 7)
    atoms = len(alg.order_atoms())
    assert (atoms + 1) ** 7 > SearchBudget().node_limit
    result = brute_force_embedding(alg, SearchBudget(max_base_size=atoms))
    assert result.found
    assert result.nodes < 100_000


# The seed-1 closure's canonical traces, masks and node counter at the
# bases where the reference loop takes most of a second or more:
# sha256 of repr((traces, masks, nodes)), pinned where the per-equation
# search that the level checks replaced gave the same triple.
PINNED_CLOSURE_TRACES = {
    7: "9075295b9b58f3c748d157d325b7a1a215a8c6dcc4063d9466547f6a65ad1790",  # 7,264 nodes
    8: "f8d6cb7407afa7e6681e0a582a2c12481d642197e7a45270e2b6cf789d2a2ea1",  # 12,357 nodes
    9: "7f451f951612de5a412dab1377592db6f4e3bb262e49ebf310a83d652fd94d44",  # 19,760 nodes
    10: "b697d0a511f9444e73759f96c0349f7037a0f589ecba622e95c6761404e923ce",  # 30,085 nodes
    11: "06a840ce7fa6566c44efda48eb8e35a3c20e9aef7725717e19fe4064304b843a",  # 44,016 nodes
    12: "6abb81cd82b5b8e56bc9b7128f57a72a5638574642d533b8820a6a9347156115",  # 62,309 nodes
    13: "dabc3abd08bb6f6fb3c2083f89fa3363b51601da4bd0226556ee670fecf0fc15",  # 85,792 nodes
    14: "a768713fa7e698fb9683f71ef1a3bbbb54fb2e29c61fa6c91cee3d31a836f249",  # 115,365 nodes
}


def test_traces_match_the_reference_at_every_base(small, corpus, large):
    closure = large[1]
    assert len(closure.order_atoms()) + 2 == max(PINNED_CLOSURE_TRACES)
    for alg in [*small, *corpus, *large]:
        for m in range(len(alg.order_atoms()) + 3):
            if alg is not closure or m not in PINNED_CLOSURE_TRACES:
                assert_traces_match_the_reference(alg, m)
                continue
            (traces, masks), nodes = search_outcome(_columns_and_masks, alg, m)
            found = hashlib.sha256(repr((traces, masks, nodes)).encode()).hexdigest()
            assert found == PINNED_CLOSURE_TRACES[m], m
            assert search_outcome(_columns_and_masks, alg, m, limit=nodes - 1) == ("limit", nodes)


def test_traces_match_the_reference_on_perturbed_copies(perturbed_small, perturbed_corpus):
    for alg in perturbed_small + perturbed_corpus:
        assert_same_columns(alg)


def test_a_base_past_one_byte_matches_the_reference(small, f2):
    # Trace values count generators, not points, so the trace stays a
    # byte table whatever the base size.
    budget = SearchBudget(max_base_size=300)
    one_generator = [alg for alg in small if len(generating_set(alg)) == 1]
    assert len(one_generator) == 4
    for alg in [f2.abstract, *one_generator]:
        got = brute_force_embedding(alg, budget)
        assert got == reference_embedding(alg, budget)
        assert got.found


# Each mutant corrupts the plan, or the level tables built from it; the
# comparison with the reference must notice it on the small algebras.


def _cut_last_row(level, alg, tables):
    # Only the last level knows every element.
    minus, restrict = tables
    return (minus[: -len(level.known)], restrict) if len(level.known) == alg.size else tables


def _swap_tables(level, alg, tables):
    return tables[::-1]


def _swap_derive_ops(alg, plan):
    return tuple(
        level._replace(derive=tuple((c, 1 - op, a, b) for c, op, a, b in level.derive))
        for level in plan
    )


@pytest.mark.parametrize("mutate", [_cut_last_row, _swap_derive_ops, _swap_tables])
def test_reference_comparison_catches_plan_mutants(small, mutate, monkeypatch):
    if mutate is _swap_derive_ops:
        build = oracle._propagation_plan
        monkeypatch.setattr(oracle, "_propagation_plan", lambda alg: mutate(alg, build(alg)))
    else:
        tables = oracle._PlanLevel.tables
        monkeypatch.setattr(
            oracle._PlanLevel, "tables", lambda level, alg: mutate(level, alg, tables(level, alg))
        )
    with pytest.raises(AssertionError):
        for alg in small:
            assert_same_columns(alg)
