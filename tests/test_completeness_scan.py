"""The exact completeness test against the plain subset scan.

``reference_completeness_report`` is the subset loop, kept verbatim as
the oracle: every subset walks its bits, asks ``_glb``/``_lub`` for its
bounds, and intersects and unions the graphs as frozensets.  Where it
scans every subset, its meet, join and atomic verdicts must equal the
exact test's; where it samples, every failure it finds must be found by
the exact test too.  Every witness of the exact test is a subset whose
bound, recomputed by brute force, is not sent to the intersection or
union of the graphs.  The representations are conftest's: each
construction and its copies with one pair dropped or added, or with
one element given another's value over one more state
(``SCANNED_EDITS``); the subset scan is too slow to read every edit.

The reports on one algebra share its bounds.  Every report of the
``corpus`` and ``large`` representations, edited copies included, must
equal the report on a freshly parsed copy of its algebra, and the
reports on one algebra must take each (bound, subset) pair that their
definition names exactly once.
"""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from conftest import outcome

from diffrest import (
    FiniteAlgebra,
    InconsistencyError,
    PartialFunction,
    Representation,
    atomic_theta,
    boolean_as_diffrest,
    completeness_report,
    parse_algebras,
    serialize_algebra,
)
from diffrest import represent
from diffrest.algebra import mask_iter
from diffrest.represent import CompletenessReport, _glb, _lub


SCANNED_EDITS = (None, "drop pair", "add pair", "widen other")

# The subset scan's default cap and sample count.
SUBSET_CAP_DEFAULT = 20
SAMPLE_COUNT_DEFAULT = 10_000


def _reference_subset_masks(n, cap, samples, seed):
    if n <= cap:
        return list(range(1 << n)), True
    picked = {0, (1 << n) - 1}
    for i in range(n):
        picked.add(1 << i)
        for j in range(i + 1, n):
            picked.add((1 << i) | (1 << j))
    rng = random.Random(seed)
    for _ in range(samples):
        picked.add(rng.getrandbits(n))
    return sorted(picked), False


def reference_completeness_report(
    rep, subset_cap=SUBSET_CAP_DEFAULT, samples=SAMPLE_COUNT_DEFAULT, seed=0
):
    """The subset scan's report, and whether the scan saw every subset
    (it samples above ``subset_cap`` elements)."""
    alg = rep.source
    n = alg.size
    masks, exhaustive = _reference_subset_masks(n, subset_cap, samples, seed)
    checked = 0

    meet_ok, meet_witness = True, None
    join_ok, join_witness = True, None
    for mask in masks:
        subset = frozenset(mask_iter(mask))
        if mask:
            w = _glb(alg, mask)
            if w is not None:
                checked += 1
                expected = rep.assignment[w].graph
                inter = None
                for s in subset:
                    g = rep.assignment[s].graph
                    inter = g if inter is None else inter & g
                if inter != expected and meet_ok:
                    meet_ok, meet_witness = False, subset
        w = _lub(alg, mask)
        if w is not None:
            checked += 1
            expected = rep.assignment[w].graph
            union = frozenset()
            for s in subset:
                union |= rep.assignment[s].graph
            if union != expected and join_ok:
                join_ok, join_witness = False, subset

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

    report = CompletenessReport(
        meet_ok, meet_witness, join_ok, join_witness, atomic_ok, atomic_witness, checked
    )
    return report, exhaustive


def _brute_bound(alg, subset, greatest):
    """The glb (``greatest``) or lub of ``subset``, read off ``leq``."""
    below = alg.leq if greatest else (lambda x, y: alg.leq(y, x))
    bounds = [x for x in range(alg.size) if all(below(x, s) for s in subset)]
    best = [x for x in bounds if all(below(y, x) for y in bounds)]
    return best[0] if best else None


def assert_witnesses_fail(rep, report):
    """Each witness has a bound that is not sent to the intersection
    (meets) or union (joins) of the witness's graphs."""
    graphs = [f.graph for f in rep.assignment]
    if report.meet_witness is not None:
        w = _brute_bound(rep.source, report.meet_witness, greatest=True)
        assert report.meet_witness and w is not None
        assert frozenset.intersection(*(graphs[s] for s in report.meet_witness)) != graphs[w]
    if report.join_witness is not None:
        w = _brute_bound(rep.source, report.join_witness, greatest=False)
        assert w is not None
        assert frozenset().union(*(graphs[s] for s in report.join_witness)) != graphs[w]


def first_witnesses(rep):
    """The meet and join witnesses by the exact test's rule, bounds read
    off ``leq``: the first monotonicity break (w, s), else for the first
    w and then the first pair p, the holders of p above w (p not in h(w))
    or the elements below w that miss p (p in h(w))."""
    alg, graphs = rep.source, [f.graph for f in rep.assignment]
    for w, s in itertools.product(range(alg.size), repeat=2):
        if alg.leq(w, s) and not graphs[w] <= graphs[s]:
            return frozenset((w, s)), frozenset((w, s))
    pairs = sorted(frozenset().union(*graphs))

    def first(greatest):
        for w, p in itertools.product(range(alg.size), pairs):
            if greatest and p not in graphs[w]:
                subset = [u for u in range(alg.size) if p in graphs[u] and alg.leq(w, u)]
            elif not greatest and p in graphs[w]:
                subset = [t for t in range(alg.size) if p not in graphs[t] and alg.leq(t, w)]
            else:
                continue
            if (subset or not greatest) and _brute_bound(alg, subset, greatest) == w:
                return frozenset(subset)
        return None

    return first(True), first(False)


def assert_agrees_with_subset_scan(rep, cap, samples=SAMPLE_COUNT_DEFAULT):
    """Compare with the subset scan; return (exhaustive, meet, join) of
    the scan."""
    want, exhaustive = reference_completeness_report(rep, cap, samples, seed=3)
    got = completeness_report(rep)
    assert (got.atomic, got.atomic_witness) == (want.atomic, want.atomic_witness)
    if exhaustive:
        assert (got.meet_complete, got.join_complete) == (
            want.meet_complete,
            want.join_complete,
        ), rep.assignment
        assert (got.meet_witness, got.join_witness) == first_witnesses(rep)
    else:
        assert got.meet_complete <= want.meet_complete, rep.assignment
        assert got.join_complete <= want.join_complete, rep.assignment
    assert_witnesses_fail(rep, got)
    return exhaustive, want.meet_complete, want.join_complete


def _assert_scans_agree(reps, caps, samples=SAMPLE_COUNT_DEFAULT):
    """Run the comparison on every construction and its copies with
    ``SCANNED_EDITS``; return how often each (exhaustive, meet, join)
    verdict of the subset scan occurred."""
    verdicts = Counter()
    for edit, rep in reps:
        if edit in SCANNED_EDITS:
            # The scan reads its cap only to choose between every subset
            # and the samples, so one cap of each kind gives every scan.
            for cap in {rep.source.size <= cap: cap for cap in caps}.values():
                verdicts[assert_agrees_with_subset_scan(rep, cap, samples)] += 1
    return verdicts


def _both_verdicts(verdicts, exhaustive):
    """Meets and joins were each found complete and incomplete, by the
    scan that was (or was not) ``exhaustive``."""
    for i in (1, 2):
        assert {v[i] for v in verdicts if v[0] == exhaustive} == {True, False}, verdicts


def test_exact_test_matches_subset_scan_on_fixtures_and_small_models(representations):
    reps = representations["small"]
    assert len({id(rep.source) for _, rep in reps}) == 20
    verdicts = _assert_scans_agree(reps, caps=(0, 2, 4, SUBSET_CAP_DEFAULT))
    _both_verdicts(verdicts, exhaustive=True)
    _both_verdicts(verdicts, exhaustive=False)


def test_exact_test_matches_subset_scan_on_acceptance_corpus(representations):
    reps = representations["corpus"]
    # Cap 10 scans sizes up to 10 exhaustively and samples 17 to 32.
    assert {9, 10, 17, 32} <= {rep.source.size for _, rep in reps}
    verdicts = _assert_scans_agree(reps, caps=(4, 10), samples=500)
    _both_verdicts(verdicts, exhaustive=True)
    _both_verdicts(verdicts, exhaustive=False)


def test_exact_test_finds_the_sampled_failures_on_the_large_algebras(representations):
    """The two algebras of the benchmark's ``large`` workload at seed 1."""
    reps = representations["large"]
    verdicts = _assert_scans_agree(reps, caps=(SUBSET_CAP_DEFAULT,), samples=200)
    assert {v[0] for v in verdicts} == {False}
    _both_verdicts(verdicts, exhaustive=False)


def test_completeness_scan_memory_does_not_grow_with_the_cap():
    rep = atomic_theta(boolean_as_diffrest(4).abstract)
    # Warm the algebra's cached order structure, which is not the report's.
    first = completeness_report(rep)
    for cap in (0, 2, 16, 64):
        tracemalloc.start()
        try:
            report = completeness_report(rep, subset_cap=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == first
        assert peak < 512 * 1024, (cap, peak)
    assert first.fully_complete


# Minus tables whose derived order (b <= a iff a - (a - b) = b) is not a
# partial order; the restrict table is irrelevant to the order.
NOT_PARTIAL_ORDERS = {
    "not reflexive at 1": [[0, 0], [0, 0]],
    "not antisymmetric at (1, 2)": [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
    "not transitive at (1, 2, 3)": [[0, 0, 0, 0], [1, 0, 0, 3], [2, 2, 0, 0], [3, 3, 3, 0]],
}


@pytest.mark.parametrize("fault", NOT_PARTIAL_ORDERS)
def test_an_order_that_is_not_partial_is_an_error(fault):
    minus = NOT_PARTIAL_ORDERS[fault]
    alg = FiniteAlgebra.from_tables(minus, minus)
    rep = Representation(alg, "external", (), (PartialFunction((), ()),) * alg.size)
    with pytest.raises(InconsistencyError) as error:
        completeness_report(rep)
    assert str(error.value) == f"the element order is {fault}"




def fresh(alg):
    """A freshly parsed copy of ``alg``, whose caches start empty."""
    (copy,) = parse_algebras(serialize_algebra(alg))
    return copy


def by_source(reps):
    """The representations of ``reps`` grouped by source algebra, each
    group moved onto one freshly parsed copy of its source."""
    groups = {}
    for _, rep in reps:
        if id(rep.source) not in groups:
            groups[id(rep.source)] = fresh(rep.source), []
        copy, group = groups[id(rep.source)]
        group.append(rep._replace(source=copy))
    return [group for _, group in groups.values()]


def test_shared_bounds_give_the_reports_of_fresh_copies(representations):
    # Every report on one algebra shares its bounds: the four
    # constructions' and their edited copies'.  Each must be the report
    # on a copy of the algebra whose bounds are not yet taken.
    for _, rep in representations["corpus"] + representations["large"]:
        want = outcome(completeness_report, rep._replace(source=fresh(rep.source)))
        assert outcome(completeness_report, rep) == want


def bound_keys(rep):
    """The (bound, subset) pairs the report on ``rep`` decides, by its
    definition: per element w and holder set H of a pair, the lub of
    down(w) - H if w is in H, else the glb of H & up(w) if not empty."""
    alg, holders = rep.source, {}
    for a, f in enumerate(rep.assignment):
        for pair in f.graph:
            holders[pair] = holders.get(pair, 0) | 1 << a
    keys = set()
    for w, held in itertools.product(range(alg.size), set(holders.values())):
        if held >> w & 1:
            keys.add(("_lub", alg.down_masks[w] & ~held))
        elif held & alg.up_masks[w]:
            keys.add(("_glb", held & alg.up_masks[w]))
    return keys


def test_reports_on_one_algebra_take_each_bound_once(representations, monkeypatch):
    calls = []
    for name in ("_glb", "_lub"):
        bound = getattr(represent, name)
        counted = lambda alg, subset, name=name, bound=bound: (
            calls.append((name, subset)) or bound(alg, subset)
        )
        monkeypatch.setattr(represent, name, counted)
    both = 0
    for group in by_source(representations["corpus"] + representations["large"]):
        calls.clear()
        reps = [rep for rep in group if len(rep.assignment) == rep.source.size]
        for rep in reps:
            completeness_report(rep)
        assert sorted(calls) == sorted(set().union(*map(bound_keys, reps)))
        # A subset taken both as a glb and as a lub: a key without the
        # bound would give one of them the other's result.
        both += len({subset for _, subset in calls}) < len(calls)
    assert both
