"""Tables, law checking, derived relations, quotients, and downsets."""

import gc
import weakref

import pytest

from conftest import F, G, H, K, M, N1_C, N1_D, F2_ZERO, make_f2

from diffrest import (
    ComplementedSemilattice,
    FiniteAlgebra,
    InconsistencyError,
    SizeCapError,
    TableError,
    boolean_downset,
    check_axioms,
    check_derived_laws,
    check_subtraction_axioms,
    complemented_semilattice_of,
    derived_relations,
    domain_quotient,
    enumerate_axiom_models,
    enumerate_filters,
    evaluate_law,
    subtraction_from_boolean_downsets,
)

AXIOMS = ("Ax.1", "Ax.2", "Ax.3", "Ax.4", "Ax.5")


def test_fixture_algebras_pass_axioms(f0, f1, f2, f3, f4):
    for conc in (f1, f2, f3, f4):
        assert check_axioms(conc.abstract).passed
    assert check_axioms(f0).passed


def test_one_element_algebra_passes_everything(f0):
    assert check_axioms(f0).passed
    assert check_derived_laws(f0).passed


def test_relational_closure_fails_only_functionality_law(n1):
    alg, _ = n1
    report = check_axioms(alg)
    for name in AXIOMS[:4]:
        assert report.verdict(name).passed
    bad = report.verdict("Ax.5")
    assert not bad.passed
    assert bad.witness == (N1_C, N1_D)


def test_failure_witness_reevaluates_to_false(n1):
    alg, _ = n1
    bad = check_axioms(alg).verdict("Ax.5")
    assert evaluate_law(alg, "Ax.5", bad.witness) is False
    # and the law holds at some other instance
    assert evaluate_law(alg, "Ax.5", (N1_D, N1_D)) is True


def test_table_entry_out_of_range_rejected():
    with pytest.raises(TableError, match=r"minus\[0\]\[1\]"):
        FiniteAlgebra.from_tables([[0, 7], [1, 0]], [[0, 0], [0, 1]])


def test_ill_defined_bottom_rejected():
    with pytest.raises(TableError, match="bottom"):
        FiniteAlgebra.from_tables([[0, 0], [1, 1]], [[0, 0], [0, 1]])


def test_size_cap():
    n = 65
    table = [[0] * n for _ in range(n)]
    with pytest.raises(SizeCapError):
        FiniteAlgebra.from_tables(table, table)


def test_empty_algebra_rejected():
    with pytest.raises(TableError, match="nonempty"):
        FiniteAlgebra.from_tables([], [])


def test_derived_laws_pass_on_fixtures(f1, f2, f3, f4):
    for conc in (f1, f2, f3, f4):
        assert check_derived_laws(conc.abstract).passed


def test_derived_law_instances(f2, f4):
    alg = f2.abstract
    # (k |> h) - m  and  k |> (h - m) both evaluate to k
    lhs = alg.minus[alg.restrict[K][H]][M]
    rhs = alg.restrict[K][alg.minus[H][M]]
    assert lhs == rhs == K
    # restriction output sits below its second argument
    alg4 = f4.abstract
    assert alg4.restrict[G][F] == F
    assert alg4.leq(alg4.restrict[G][F], F)


def test_every_derived_law_holds_at_bottom(f2):
    alg = f2.abstract
    z = alg.zero
    for law, arity in (
        ("meet-minus-disjoint", 2),
        ("minus-absorbs-meet", 2),
        ("meet-minus-assoc", 3),
        ("restrict-below", 2),
        ("restrict-assoc", 3),
        ("restrict-meet-absorb", 2),
        ("restrict-over-meet", 3),
        ("restrict-over-minus", 3),
        ("restrict-monotone", 4),
    ):
        assert evaluate_law(alg, law, (z,) * arity)


def test_axiom_implies_derived_exhaustively_at_small_sizes():
    # Every law model of size <= 5 satisfies the derived laws over all
    # variable assignments.
    for n in (1, 2, 3, 4, 5):
        for model in enumerate_axiom_models(n).models:
            assert check_derived_laws(model).passed


@pytest.mark.slow
def test_axiom_implies_derived_exhaustively_at_size_six():
    # Completes the soundness sweep at size 6; takes about 12 seconds.
    from diffrest import SearchBudget

    catalog = enumerate_axiom_models(6, SearchBudget(node_limit=500_000_000))
    assert catalog.exhaustive
    assert (len(catalog.models), catalog.nodes) == (14, 1_029_123)
    for model in catalog.models:
        assert check_derived_laws(model).passed


def test_derived_relations_f2(f2):
    alg = f2.abstract
    rels = derived_relations(alg)
    assert (K, H) in rels.domleq
    assert (H, K) not in rels.domleq
    assert all((alg.zero, a) in rels.domleq for a in range(alg.size))


def test_derived_relations_f4(f4):
    alg = f4.abstract
    rels = derived_relations(alg)
    assert (F, G) in rels.domeq and (G, F) in rels.domeq
    assert F != G


def test_leq_contained_in_domleq(f2, f3, f4):
    for conc in (f2, f3, f4):
        rels = derived_relations(conc.abstract)
        assert rels.leq <= rels.domleq


def test_domain_quotient_f4(f4):
    quot = domain_quotient(f4.abstract)
    assert quot.class_of == (0, 0, 1)
    assert quot.class_rep == (0, 2)
    # the quotient is the two-element algebra: one atom class over bottom
    assert quot.meet == ((0, 1), (1, 1))
    assert quot.qminus == ((1, 0), (1, 1))


def test_domain_quotient_f2(f2):
    quot = domain_quotient(f2.abstract)
    assert quot.n_classes == 4
    assert quot.meet[quot.class_of[K]][quot.class_of[M]] == quot.zero_class


def test_domain_quotient_f0(f0):
    assert domain_quotient(f0).n_classes == 1


def test_boolean_downset_f2(f2):
    alg = f2.abstract
    ds = boolean_downset(alg, H)
    assert ds.members == (K, M, H, F2_ZERO)
    assert ds.complement_of(K) == M
    assert set(ds.ultrafilters()) == {
        frozenset({K, H}),
        frozenset({M, H}),
    }
    small = boolean_downset(alg, K)
    assert small.members == (K, F2_ZERO)


def test_boolean_downset_degenerate(f2):
    alg = f2.abstract
    ds = boolean_downset(alg, alg.zero)
    assert ds.members == (alg.zero,)


def _three_chain():
    # 0 < a < b with a complement structure that cannot be Boolean
    minus = [[0, 0, 0], [1, 0, 0], [2, 2, 0]]
    restrict = [[0, 1, 2], [0, 1, 2], [0, 1, 2]]
    return FiniteAlgebra.from_tables(minus, restrict)


def test_boolean_downset_rejects_non_boolean():
    with pytest.raises(InconsistencyError, match="Boolean law"):
        boolean_downset(_three_chain(), 2)


def test_subtraction_roundtrip(f2, f3, f0):
    for alg in (f2.abstract, f3.abstract, f0):
        rebuilt = subtraction_from_boolean_downsets(complemented_semilattice_of(alg))
        assert rebuilt == alg.minus


def test_subtraction_rejects_non_boolean_downsets():
    with pytest.raises(InconsistencyError):
        subtraction_from_boolean_downsets(complemented_semilattice_of(_three_chain()))


def test_subtraction_one_element():
    sl = ComplementedSemilattice.from_tables([[0]], [[0]])
    assert subtraction_from_boolean_downsets(sl) == ((0,),)


def test_check_subtraction_axioms_flags_bad_table():
    report = check_subtraction_axioms([[0, 0], [0, 0]])
    assert not report.passed


@pytest.mark.parametrize("minus", [[], [[0, 5], [1, 0]], [[0, 1]]])
def test_check_subtraction_axioms_rejects_malformed_tables(minus):
    with pytest.raises(TableError):
        check_subtraction_axioms(minus)


def test_derived_structure_is_computed_once_and_freed_with_its_algebra():
    alg = make_f2().abstract
    for derive in (check_axioms, domain_quotient, enumerate_filters):
        assert derive(alg) is derive(alg)
    assert boolean_downset(alg, H) is boolean_downset(alg, H)
    family = weakref.ref(enumerate_filters(alg))
    del alg
    gc.collect()
    assert family() is None


def test_monotonicity_failure_witness(f2):
    # corrupt the top's self-restriction; the comparable-pair scan must
    # report the same first counterexample as a raw scan of all 4-tuples
    import itertools

    alg = f2.abstract
    restrict = [list(row) for row in alg.restrict]
    restrict[H][H] = K
    tweaked = FiniteAlgebra.from_tables(alg.minus, restrict)
    verdict = check_derived_laws(tweaked).verdict("restrict-monotone")
    assert not verdict.passed
    assert not evaluate_law(tweaked, "restrict-monotone", verdict.witness)
    brute = next(
        w
        for w in itertools.product(range(alg.size), repeat=4)
        if not evaluate_law(tweaked, "restrict-monotone", w)
    )
    assert verdict.witness == brute


def test_first_witness_is_lexicographic_minimum(n1):
    alg, _ = n1
    bad = check_axioms(alg).verdict("Ax.5")
    earlier = [
        (a, b)
        for a in range(alg.size)
        for b in range(alg.size)
        if (a, b) < bad.witness
    ]
    assert all(evaluate_law(alg, "Ax.5", w) for w in earlier)
