"""The exact completeness test against the plain subset scan.

``reference_completeness_report`` is the subset loop, kept verbatim as
the oracle: every subset walks its bits, asks ``_glb``/``_lub`` for its
bounds, and intersects and unions the graphs as frozensets.  Where it
scans every subset, its meet, join and atomic verdicts must equal the
exact test's; where it samples, every failure it finds must be found by
the exact test too.  Every witness of the exact test is a subset whose
bound, recomputed by brute force, is not sent to the intersection or
union of the graphs.
"""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from conftest import large_algebras, make_f0, make_f1, make_f2, make_f3, make_f4

from diffrest import (
    FiniteAlgebra,
    InconsistencyError,
    PartialFunction,
    Representation,
    atomic_eta,
    atomic_theta,
    boolean_as_diffrest,
    canonical_theta,
    completeness_report,
    enumerate_axiom_models,
    injective_eta,
)
from diffrest.algebra import mask_iter
from diffrest.represent import CompletenessReport, _glb, _lub

CONSTRUCTIONS = (canonical_theta, injective_eta, atomic_theta, atomic_eta)

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


def _with_graph(rep, a, graph):
    """``rep`` with element ``a`` sent to ``graph`` instead."""
    base = rep.assignment[a].base
    assignment = list(rep.assignment)
    assignment[a] = PartialFunction(base, graph)
    return Representation(rep.source, "external", rep.states, tuple(assignment))


def _perturbed(rep, rng):
    """``rep`` with one pair dropped, and ``rep`` with one pair added
    where some element leaves a state out of its domain."""
    out = []
    filled = [a for a, f in enumerate(rep.assignment) if f.graph]
    if filled:
        a = rng.choice(filled)
        graph = sorted(rep.assignment[a].graph)
        out.append(_with_graph(rep, a, set(graph) - {rng.choice(graph)}))
    partial = [
        a for a, f in enumerate(rep.assignment) if len(f.domain) < len(f.base)
    ]
    if partial:
        a = rng.choice(partial)
        f = rep.assignment[a]
        x = rng.choice(sorted(f.base - f.domain))
        out.append(_with_graph(rep, a, f.graph | {(x, rng.choice(sorted(f.base)))}))
    return out


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


def _assert_scans_agree(algebras, caps, samples=SAMPLE_COUNT_DEFAULT):
    """Run the comparison on every construction and its perturbations;
    return how often each (exhaustive, meet, join) verdict of the subset
    scan occurred."""
    rng = random.Random(5)
    verdicts = Counter()
    for alg in algebras:
        for build in CONSTRUCTIONS:
            rep = build(alg)
            for variant in [rep, *_perturbed(rep, rng)]:
                for cap in caps:
                    verdicts[assert_agrees_with_subset_scan(variant, cap, samples)] += 1
    return verdicts


def _both_verdicts(verdicts, exhaustive):
    """Meets and joins were each found complete and incomplete, by the
    scan that was (or was not) ``exhaustive``."""
    for i in (1, 2):
        assert {v[i] for v in verdicts if v[0] == exhaustive} == {True, False}, verdicts


def test_exact_test_matches_subset_scan_on_fixtures_and_small_models():
    algebras = [make().abstract for make in (make_f1, make_f2, make_f3, make_f4)]
    algebras.append(make_f0())
    for n in range(1, 6):
        algebras.extend(enumerate_axiom_models(n).models)
    assert len(algebras) == 20
    verdicts = _assert_scans_agree(algebras, caps=(0, 2, 4, SUBSET_CAP_DEFAULT))
    _both_verdicts(verdicts, exhaustive=True)
    _both_verdicts(verdicts, exhaustive=False)


def test_exact_test_matches_subset_scan_on_acceptance_corpus(corpus200):
    algebras = [conc.abstract for conc in corpus200]
    # Cap 10 scans sizes up to 10 exhaustively and samples 17 to 32.
    assert {9, 10, 17, 32} <= {alg.size for alg in algebras}
    verdicts = _assert_scans_agree(algebras, caps=(4, 10), samples=500)
    _both_verdicts(verdicts, exhaustive=True)
    _both_verdicts(verdicts, exhaustive=False)


def test_exact_test_finds_the_sampled_failures_on_the_large_algebras():
    """The two algebras of the benchmark's ``large`` workload at seed 1."""
    verdicts = _assert_scans_agree(large_algebras(), caps=(SUBSET_CAP_DEFAULT,), samples=200)
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
