"""The fold-table completeness scan against the plain subset scan.

``reference_completeness_report`` is the subset loop that the fold-table
scan replaced, kept verbatim as the oracle: every subset walks its
bits, asks ``_glb``/``_lub`` for its bounds, and intersects and unions
the graphs as frozensets.
"""

import random
import tracemalloc

from conftest import make_f0, make_f1, make_f2, make_f3, make_f4

from diffrest import (
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
from diffrest.represent import (
    SAMPLE_COUNT_DEFAULT,
    SUBSET_CAP_DEFAULT,
    CompletenessReport,
    _glb,
    _lub,
)

CONSTRUCTIONS = (canonical_theta, injective_eta, atomic_theta, atomic_eta)


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


def _assert_scans_agree(algebras, caps, samples=SAMPLE_COUNT_DEFAULT):
    rng = random.Random(5)
    witnesses = 0
    for alg in algebras:
        for build in CONSTRUCTIONS:
            rep = build(alg)
            for variant in [rep, *_perturbed(rep, rng)]:
                for cap in caps:
                    want = reference_completeness_report(variant, cap, samples, seed=3)
                    got = completeness_report(variant, cap, samples, seed=3)
                    assert got == want, (alg, build.__name__, cap, variant.assignment)
                    witnesses += want.meet_witness is not None
                    witnesses += want.join_witness is not None
    return witnesses


def test_fold_scan_matches_subset_scan_on_fixtures_and_small_models():
    algebras = [make().abstract for make in (make_f1, make_f2, make_f3, make_f4)]
    algebras.append(make_f0())
    for n in range(1, 6):
        algebras.extend(enumerate_axiom_models(n).models)
    assert len(algebras) == 20
    assert _assert_scans_agree(algebras, caps=(0, 2, 4, SUBSET_CAP_DEFAULT)) > 0


def test_fold_scan_matches_subset_scan_on_acceptance_corpus(corpus200):
    algebras = [conc.abstract for conc in corpus200]
    # Sizes 9 and 10 fill two fold tables exhaustively at cap 10; 17 to
    # 32 fill three and four, sampled.
    assert {9, 10, 17, 32} <= {alg.size for alg in algebras}
    assert _assert_scans_agree(algebras, caps=(4, 10), samples=500) > 0


def test_completeness_scan_memory_does_not_grow_with_the_cap():
    rep = atomic_theta(boolean_as_diffrest(4).abstract)
    # Warm the algebra's cached order structure, which is not the scan's.
    completeness_report(rep, subset_cap=2)
    tracemalloc.start()
    try:
        report = completeness_report(rep, subset_cap=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exhaustive and report.subsets_checked > 1 << 16
    assert peak < 512 * 1024, peak
