"""Brute-force enumeration, embedding search, and differential validation."""

import random
import time

import pytest

from diffrest import (
    BudgetExceededError,
    FiniteAlgebra,
    SearchBudget,
    brute_force_embedding,
    canonical_form,
    check_axioms,
    differential_check,
    enumerate_axiom_models,
    generating_set,
    verify_representation,
    Representation,
)
from lemmas import enumerate_pfuns, relabel


def test_enumerate_pfuns_counts():
    assert len(enumerate_pfuns(0)) == 1
    assert len(enumerate_pfuns(1)) == 2
    assert len(enumerate_pfuns(2)) == 9
    assert len({f.graph for f in enumerate_pfuns(2)}) == 9


def test_enumerate_pfuns_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_pfuns(5)
    assert len(enumerate_pfuns(3, SearchBudget(max_base_size=3))) == 64


def test_generating_set_covers(f2, f3, f4):
    for conc in (f2, f3, f4):
        alg = conc.abstract
        gens = generating_set(alg)
        assert len(gens) <= alg.size
        closed = set(gens)
        while True:
            new = set(closed)
            for x in closed:
                for y in closed:
                    new.add(alg.minus[x][y])
                    new.add(alg.restrict[x][y])
            if new == closed:
                break
            closed = new
        assert closed == set(range(alg.size))


def test_embedding_found_for_f2(f2):
    result = brute_force_embedding(f2.abstract, SearchBudget(max_base_size=2))
    assert result.found
    rep = Representation(
        f2.abstract, "external", tuple(range(1, 3)), result.assignment
    )
    assert verify_representation(rep).passed


def test_embedding_none_for_relational_tables(n1):
    alg, _ = n1
    for k in range(4):
        result = brute_force_embedding(alg, SearchBudget(max_base_size=k))
        assert result.verdict == "none", k


def test_embedding_found_empty_base(f0):
    result = brute_force_embedding(f0, SearchBudget(max_base_size=0))
    assert result.found
    assert result.assignment[0].graph == frozenset()


def test_embedding_deterministic(f2):
    budget = SearchBudget(max_base_size=2)
    a = brute_force_embedding(f2.abstract, budget)
    b = brute_force_embedding(f2.abstract, budget)
    assert a == b


def test_embedding_search_refuses_a_raw_algebra_above_the_size_cap():
    # ``from_tables`` refuses 65 elements itself; the raw constructor
    # does not, so the search checks the size before reading a table.
    table = ((0,) * 65,) * 65
    alg = FiniteAlgebra(65, table, table, 0)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as raised:
        brute_force_embedding(alg)
    assert time.perf_counter() - start < 1.0
    assert str(raised.value) == "algebra size 65 exceeds the budget limit 64"


def test_embedding_inconclusive_on_tiny_node_limit(f2):
    result = brute_force_embedding(
        f2.abstract, SearchBudget(max_base_size=2, node_limit=1)
    )
    assert result.verdict == "inconclusive"


def test_model_counts_n1_n2():
    one = enumerate_axiom_models(1)
    assert one.exhaustive and len(one.models) == 1
    two = enumerate_axiom_models(2)
    assert two.exhaustive and len(two.models) == 1
    model = two.models[0]
    assert model.minus == ((0, 0), (1, 0))
    assert model.restrict == ((0, 0), (0, 1))


def test_models_n3_include_both_two_atom_algebras(f3, f4):
    catalog = enumerate_axiom_models(3)
    assert catalog.exhaustive
    forms = {canonical_form(m) for m in catalog.models}
    assert canonical_form(f3.abstract) in forms
    assert canonical_form(f4.abstract) in forms
    assert canonical_form(f3.abstract) != canonical_form(f4.abstract)


def test_models_pass_axioms(models):
    for model in models:
        assert check_axioms(model).passed


# Per family of the differential corpus, how many algebras pass and fail the laws.
DIFFERENTIAL_VERDICTS = {
    "small": (20, 1), "perturbed_small": (15, 250), "perturbed_corpus": (13, 132),
    "perturbed_large": (0, 40),
}


@pytest.mark.parametrize("family", DIFFERENTIAL_VERDICTS)
def test_differential_agreement(family, request):
    algebras = request.getfixturevalue(family)
    report = differential_check(algebras, SearchBudget(max_base_size=3))
    assert not report.disagreements
    assert not report.inconclusive
    passed = [entry.axioms.passed for entry in report.entries]
    assert (passed.count(True), passed.count(False)) == DIFFERENTIAL_VERDICTS[family]


def test_differential_deterministic(f2, f4):
    corpus = (f2.abstract, f4.abstract)
    budget = SearchBudget(max_base_size=3)
    assert differential_check(corpus, budget) == differential_check(corpus, budget)


def test_differential_lists_inconclusive_separately(f2):
    report = differential_check(
        [f2.abstract], SearchBudget(max_base_size=2, node_limit=1)
    )
    assert len(report.inconclusive) == 1
    assert not report.disagreements


def test_found_assignments_are_complete(f2):
    # finite inputs admit only complete representations; the search's
    # output is no exception
    from diffrest import completeness_report

    result = brute_force_embedding(f2.abstract, SearchBudget(max_base_size=2))
    rep = Representation(f2.abstract, "external", (1, 2), result.assignment)
    report = completeness_report(rep)
    assert report.meet_complete and report.join_complete and report.atomic


def test_canonical_form_identifies_isomorphs(f0, f1, f2, f3, f4, n1):
    alg = f2.abstract
    # relabel by swapping the two atoms
    relabeled = relabel(alg, [1, 0, 2, 3])
    assert canonical_form(relabeled) == canonical_form(alg)
    fixtures = [f0, f1.abstract, f2.abstract, f3.abstract, f4.abstract, n1[0]]
    forms = [canonical_form(alg) for alg in fixtures]
    assert len(set(forms)) == len(fixtures)
    rng = random.Random(23)
    zeros = set()
    for alg, form in zip(fixtures, forms):
        n = alg.size
        # the rotation moves every id, zero's included
        for sigma in [[(a + 1) % n for a in range(n)]] + [rng.sample(range(n), n) for _ in range(6)]:
            relabeled = relabel(alg, sigma)
            zeros.add(relabeled.zero)
            assert canonical_form(relabeled) == form
    assert zeros - {0}
