"""Brute-force enumeration, embedding search, and differential validation."""

import time

import pytest

from diffrest import (
    BudgetExceededError,
    FiniteAlgebra,
    InconsistencyError,
    SearchBudget,
    SizeCapError,
    brute_force_embedding,
    check_axioms,
    differential_check,
    enumerate_axiom_models,
    generating_set,
    verify_representation,
    Representation,
)
from diffrest import oracle
from diffrest.represent import VerificationFailure, VerificationReport
from lemmas import enumerate_pfuns, reference_canonical_form


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


def test_an_assignment_that_fails_verification_is_an_error(f2, monkeypatch):
    # The search only returns assignments the tables admit, so a failing
    # verifier stands in for a faulty search.
    failure = VerificationFailure("minus-preserved", (0, 1))
    report = VerificationReport(False, (failure,))
    monkeypatch.setattr(oracle, "verify_representation", lambda rep: report)
    with pytest.raises(InconsistencyError) as error:
        brute_force_embedding(f2.abstract, SearchBudget(max_base_size=2))
    assert str(error.value) == f"search produced an assignment that fails verification: {failure}"


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
    # The raw constructor checks the size as ``from_tables`` does, so
    # the search is never handed an algebra above the cap.
    table = ((0,) * 65,) * 65
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match="^size 65 exceeds the cap of 64 elements$"):
        brute_force_embedding(FiniteAlgebra(65, table, table, 0))
    assert time.perf_counter() - start < 1.0


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
    forms = {reference_canonical_form(m) for m in catalog.models}
    assert reference_canonical_form(f3.abstract) in forms
    assert reference_canonical_form(f4.abstract) in forms
    assert reference_canonical_form(f3.abstract) != reference_canonical_form(f4.abstract)


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
