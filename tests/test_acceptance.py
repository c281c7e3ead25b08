"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict per criterion.  The corpus is the seeded 200-algebra random
closure sweep defined in conftest (seed recorded there); tolerances are
zero failures throughout.
"""

import time

import pytest

from conftest import CORPUS_SEED, make_f2, N1_C, N1_D

from diffrest import (
    PartialFunction,
    Representation,
    SearchBudget,
    atomic_eta,
    atomic_theta,
    boolean_as_diffrest,
    brute_force_embedding,
    canonical_theta,
    check_axioms,
    check_derived_laws,
    completeness_report,
    differential_check,
    enumerate_axiom_models,
    injective_eta,
    is_injective_pf,
    ultrafilter_bijection,
    verify_representation,
)


@pytest.fixture(scope="module")
def models_small():
    out = []
    for n in (1, 2, 3, 4):
        catalog = enumerate_axiom_models(n)
        assert catalog.exhaustive
        out.extend(catalog.models)
    return out


def test_c1_soundness_sweep(corpus200):
    started = time.time()
    failures = []
    for i, conc in enumerate(corpus200):
        if not check_axioms(conc.abstract).passed:
            failures.append((CORPUS_SEED, i, "axioms"))
        if not check_derived_laws(conc.abstract).passed:
            failures.append((CORPUS_SEED, i, "derived"))
    assert failures == []
    print(
        f"\nC1 PASS soundness sweep: 200 closures, 0 failures, "
        f"{time.time() - started:.1f}s (seed {CORPUS_SEED})"
    )


def test_c2_representation_theorem(corpus200, models_small):
    started = time.time()
    algebras = [c.abstract for c in corpus200] + list(models_small)
    for alg in algebras:
        assert verify_representation(canonical_theta(alg)).passed
    report = differential_check(
        algebras, SearchBudget(max_base_size=4, node_limit=5_000_000)
    )
    assert not report.disagreements
    assert not report.inconclusive
    print(
        f"\nC2 PASS representation theorem: {len(algebras)} algebras verified, "
        f"differential agreement 100%, 0 inconclusive, {time.time() - started:.1f}s"
    )


def test_c3_injective_representation(corpus200, models_small):
    started = time.time()
    algebras = [c.abstract for c in corpus200] + list(models_small)
    triples = 0
    for alg in algebras:
        theta = canonical_theta(alg)
        eta = injective_eta(alg)
        assert verify_representation(eta).passed
        for value in eta.assignment:
            assert is_injective_pf(value)

        nc = sum(1 for s in eta.states if s[0] == "class")
        assert tuple(s[1] for s in eta.states[nc:]) == theta.states
        cls_of = {}
        for a in range(alg.size):
            for c, j in eta.assignment[a].graph:
                cls_of.setdefault(j - nc, c)
        k = len(theta.states)
        for a in range(alg.size):
            tg = theta.assignment[a].graph
            eg = eta.assignment[a].graph
            for i in range(k):
                for j in range(k):
                    assert ((i, j) in tg) == ((cls_of[i], nc + j) in eg)
                    triples += 1
    print(
        f"\nC3 PASS injective representation: {len(algebras)} algebras, "
        f"{triples} coherence triples, 0 failures, {time.time() - started:.1f}s"
    )


def test_c4_nonrepresentability_witness(n1):
    alg, _ = n1
    report = check_axioms(alg)
    bad = report.verdict("Ax.5")
    assert not bad.passed
    assert bad.witness == (N1_C, N1_D)
    for base in range(4):
        result = brute_force_embedding(alg, SearchBudget(max_base_size=base))
        assert result.verdict == "none"
    diff = differential_check([alg], SearchBudget(max_base_size=3))
    assert not diff.disagreements and not diff.inconclusive
    print(
        "\nC4 PASS non-representability: law failure witness (c, d), "
        "search exhausts bases 0..3 with verdict none"
    )


def test_c5_completeness_equivalences(corpus200, models_small):
    started = time.time()
    algebras = [c.abstract for c in corpus200] + list(models_small)
    reports = 0
    for alg in algebras:
        for build in (canonical_theta, injective_eta, atomic_theta, atomic_eta):
            report = completeness_report(build(alg))
            assert report.meet_complete, (alg, build.__name__)
            assert report.join_complete, (alg, build.__name__)
            assert report.atomic, (alg, build.__name__)
            reports += 1

    # the deliberately corrupted non-injective assignment is rejected
    f2 = make_f2().abstract
    good = canonical_theta(f2)
    base = good.assignment[0].base
    corrupted = Representation(
        f2,
        "external",
        good.states,
        (PartialFunction(base, ()),) * 2 + good.assignment[2:],
    )
    verdict = verify_representation(corrupted)
    assert not verdict.passed
    assert any(f.check == "injectivity" for f in verdict.failures)
    print(
        f"\nC5 PASS completeness equivalences: {reports} reports, all "
        f"meet=join=atomic=true; corrupted assignment rejected, "
        f"{time.time() - started:.1f}s"
    )


def test_c6_ultrafilter_bijection(corpus200, models_small):
    started = time.time()
    algebras = [c.abstract for c in corpus200] + list(models_small)
    pairs = 0
    for alg in algebras:
        for a in range(alg.size):
            if a == alg.zero:
                continue
            forward, backward = ultrafilter_bijection(alg, a)
            assert len(forward) == len(backward)
            for mu, nu in forward.items():
                assert backward[nu].members == mu.members
                pairs += 1
            for nu, mu in backward.items():
                assert forward[mu] == nu
    print(
        f"\nC6 PASS ultrafilter bijection: {len(algebras)} algebras, "
        f"{pairs} round trips, 0 failures, {time.time() - started:.1f}s"
    )


def test_c7_boolean_interpretation():
    started = time.time()
    for u in range(5):
        conc = boolean_as_diffrest(u)
        alg = conc.abstract
        assert check_axioms(alg).passed
        identity_rep = Representation(
            alg, "external", tuple(sorted(conc.base)), conc.elements
        )
        assert verify_representation(identity_rep).passed
        atomic = atomic_theta(alg)
        assert verify_representation(atomic).passed
        report = completeness_report(atomic)
        assert report.meet_complete and report.join_complete and report.atomic
    print(
        f"\nC7 PASS powerset interpretation: universes 0..4, identity and "
        f"atom-based representations verified complete, {time.time() - started:.1f}s"
    )


def test_c8_model_counts():
    assert len(enumerate_axiom_models(1).models) == 1
    assert len(enumerate_axiom_models(2).models) == 1
    # regression pins, recorded from the first exhaustive runs
    assert len(enumerate_axiom_models(3).models) == 2
    four = enumerate_axiom_models(4)
    assert (len(four.models), four.nodes, four.exhaustive) == (4, 66, True)
    five = enumerate_axiom_models(5)
    assert (len(five.models), five.nodes, five.exhaustive) == (7, 428, True)
    print(
        "\nC8 PASS model counts: 1 at size 1, 1 at size 2, 2 at size 3, "
        "4 at size 4 (66 nodes), 7 at size 5 (428 nodes) (pinned)"
    )
