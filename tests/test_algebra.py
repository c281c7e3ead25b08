"""Tables, law checking, derived relations, quotients, and downsets."""

import gc
import hashlib
import re

import pytest

from conftest import F, G, H, K, M, N1_C, N1_D, F2_ZERO, edited, make_f2, outcome, pairs

from diffrest import (
    BooleanLawError,
    FilterFamily,
    FiniteAlgebra,
    InconsistencyError,
    SizeCapError,
    TableError,
    boolean_as_diffrest,
    boolean_downset,
    check_axioms,
    check_derived_laws,
    derived_relations,
    domain_quotient,
    enumerate_axiom_models,
    enumerate_filters,
)
from diffrest.algebra import mask_of
from lemmas import (
    ComplementedSemilattice,
    check_subtraction_axioms,
    complemented_semilattice_of,
    evaluate_law,
    minus_form,
    minus_tables_reached,
    reference_canonical_form,
    subtraction_from_boolean_downsets,
    ultrafilters,
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


@pytest.mark.parametrize("entry", [True, False])
def test_table_entry_that_is_not_an_int_rejected(entry):
    # serialize_algebra would write True as "True", which the parser refuses.
    message = f"minus[1][0] = {entry!r} is not an element id"
    with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
        FiniteAlgebra.from_tables([[0, 0], [entry, 0]], [[0, 0], [0, 1]])


def test_repeated_element_names_rejected():
    with pytest.raises(TableError, match="repeated element name 'z'"):
        FiniteAlgebra.from_tables([[0, 0], [1, 0]], [[0, 0], [0, 1]], ["z", "z"])


@pytest.mark.parametrize("name", ["x y", "a#b", "", "\tz"])
def test_names_the_file_format_cannot_hold_rejected(name):
    # The parser splits element_names on whitespace and cuts comments at '#'.
    message = f"element name {name!r} is empty or holds whitespace or '#'"
    with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
        FiniteAlgebra.from_tables([[0, 0], [1, 0]], [[0, 0], [0, 1]], [name, "z"])


def test_size_cap():
    n = 65
    table = [[0] * n for _ in range(n)]
    with pytest.raises(SizeCapError):
        FiniteAlgebra.from_tables(table, table)


def test_empty_algebra_rejected():
    with pytest.raises(TableError, match="nonempty"):
        FiniteAlgebra.from_tables([], [])


# (minus, restrict, names) that ``from_tables`` refuses, one per check.
REFUSED_TABLES = (
    ([], [], None),
    ([[0] * 65] * 65, [[0] * 65] * 65, None),
    ([[0, 0], [1]], [[0, 0], [0, 1]], None),
    ([[0, 7], [1, 0]], [[0, 0], [0, 1]], None),
    ([[0, 0], [1, 0]], [[0, 0], [0, True]], None),
    ([[0, 0], [1, 1]], [[0, 0], [0, 1]], None),
    ([[0, 0], [1, 0]], [[0, 0], [0, 1]], ["z"]),
    ([[0, 0], [1, 0]], [[0, 0], [0, 1]], ["z", "a#b"]),
    ([[0, 0], [1, 0]], [[0, 0], [0, 1]], ["z", "z"]),
)


@pytest.mark.parametrize("minus, restrict, names", REFUSED_TABLES)
def test_the_raw_constructor_refuses_what_from_tables_refuses(minus, restrict, names):
    expected = outcome(FiniteAlgebra.from_tables, minus, restrict, names)
    assert isinstance(expected, str), expected
    assert outcome(FiniteAlgebra, len(minus), minus, restrict, 0, names) == expected
    assert outcome(FiniteAlgebra._make, (len(minus), minus, restrict, 0, names)) == expected


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("zero", 3, "zero 3 is not the bottom minus[0][0] = 0"),
        ("zero", False, "zero False is not the bottom minus[0][0] = 0"),
        ("size", 5, "size 5 disagrees with the 4-row tables"),
        ("size", 4.0, "size 4.0 disagrees with the 4-row tables"),
    ],
)
def test_a_size_or_zero_that_disagrees_with_the_tables_is_refused(field, value, message):
    # With zero 3 the powerset passed check_axioms, but had no atoms.
    alg = boolean_as_diffrest(2).abstract
    with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
        alg._replace(**{field: value})


@pytest.mark.parametrize("build", [enumerate_axiom_models, boolean_as_diffrest])
@pytest.mark.parametrize("size", [2.0, True])
def test_sizes_that_are_not_integers_rejected(build, size):
    with pytest.raises(TableError, match=f"size {size} is not an integer$"):
        build(size)


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


def test_axiom_implies_derived_exhaustively_at_small_sizes(models):
    # Every law model of size <= 5 satisfies the derived laws over all
    # variable assignments.
    for model in models:
        assert check_derived_laws(model).passed


# SHA-256 of what ``diffrest search models --size 6`` prints before its
# last line (the ``PASS models`` line with the node count): the 14 models
# in catalog order, ascending in (minus, restrict).
SIZE_SIX_CATALOG_SHA256 = "2f04dd5c1792ad4ec6ca63fab1bf86c13685d7eb744bcefc39058db747c4574d"


@pytest.mark.slow
def test_axiom_implies_derived_exhaustively_at_size_six(monkeypatch, capsys):
    # Completes the soundness sweep at size 6; takes about 2 seconds.
    # It also checks that the 14 models are pairwise non-isomorphic, that
    # the search reaches one complete minus table per class (3 of the 91,
    # with distinct minus forms), and that ``search models`` prints the
    # same catalog.
    from diffrest.cli import main

    catalog, minus_tables = minus_tables_reached(monkeypatch, 6)
    assert catalog.exhaustive
    assert (len(catalog.models), catalog.nodes) == (14, 5_649)
    for model in catalog.models:
        assert check_derived_laws(model).passed
    assert len({reference_canonical_form(model) for model in catalog.models}) == 14
    assert len({minus_form(0, minus) for minus in minus_tables}) == len(minus_tables) == 3
    assert main(["search", "models", "--size", "6"]) == 0
    *printed, last = capsys.readouterr().out.splitlines(keepends=True)
    assert last == "PASS models size=6 count=14 exhaustive=yes nodes=5649\n"
    assert hashlib.sha256("".join(printed).encode()).hexdigest() == SIZE_SIX_CATALOG_SHA256


@pytest.mark.slow
def test_axiom_implies_derived_exhaustively_at_size_seven():
    # The soundness sweep at size 7; takes about 7 seconds.  The catalog
    # ascends in (minus, restrict) and its 30 models are pairwise
    # non-isomorphic, so the symmetry cut admits no isomorphic copy here.
    catalog = enumerate_axiom_models(7)
    assert (len(catalog.models), catalog.nodes, catalog.exhaustive) == (30, 310_606, True)
    tables = [(model.minus, model.restrict) for model in catalog.models]
    assert tables == sorted(tables)
    assert len({reference_canonical_form(model) for model in catalog.models}) == 30
    for model in catalog.models:
        assert check_derived_laws(model).passed


def test_derived_relations_f2(f2):
    alg = f2.abstract
    rels = derived_relations(alg)
    assert (K, H) in pairs(rels.domleq)
    assert (H, K) not in pairs(rels.domleq)
    assert all((alg.zero, a) in pairs(rels.domleq) for a in range(alg.size))


def test_derived_relations_f4(f4):
    alg = f4.abstract
    rels = derived_relations(alg)
    assert (F, G) in pairs(rels.domeq) and (G, F) in pairs(rels.domeq)
    assert F != G


def one_domain_chain(n: int) -> FiniteAlgebra:
    """The chain 0 < 1 < ... < n-1 with every nonzero element on one domain,
    so every pair 0 < a < b is below and domain-above yet distinct."""
    minus = [[0 if a <= b else a for b in range(n)] for a in range(n)]
    restrict = [[0 if 0 in (a, b) else b for b in range(n)] for a in range(n)]
    return FiniteAlgebra.from_tables(minus, restrict)


def powerset_edited(*edit):
    """The powerset of 3 points with one cell edited, built when a test
    asks for it, so that a library fault fails that test, not collection."""
    return lambda: edited(boolean_as_diffrest(3).abstract, *edit)


@pytest.mark.parametrize(
    "build, message",
    [
        # The pairs were iterated in set order, which named (5, 6, 3),
        # (2, 4) and (2, 4) here.
        (powerset_edited("restrict", 3, 5, 1), "domain preorder is not transitive at (5, 2, 3)"),
        (
            powerset_edited("minus", 2, 5, 2),
            "element order not contained in domain preorder at (2, 1)",
        ),
        (lambda: one_domain_chain(5), "(1, 2) are below/domain-above yet distinct"),
    ],
    ids=("transitive", "contained", "distinct"),
)
def test_derived_relations_names_the_lexicographically_first_witness(build, message):
    alg = build()
    with pytest.raises(InconsistencyError, match=f"^{re.escape(message)}$"):
        derived_relations(alg)


def test_leq_contained_in_domleq(f2, f3, f4):
    for conc in (f2, f3, f4):
        rels = derived_relations(conc.abstract)
        assert pairs(rels.leq) <= pairs(rels.domleq)


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
    assert quot.meet[quot.class_of[K]][quot.class_of[M]] == quot.class_of[F2_ZERO]


def test_domain_quotient_f0(f0):
    assert domain_quotient(f0).n_classes == 1


def test_boolean_downset_f2(f2):
    alg = f2.abstract
    ds = boolean_downset(alg, H)
    assert ds.members == (K, M, H, F2_ZERO)
    assert alg.minus[H][K] == M
    assert set(ultrafilters(ds)) == {
        mask_of({K, H}),
        mask_of({M, H}),
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
    with pytest.raises(BooleanLawError, match="Boolean law") as caught:
        boolean_downset(_three_chain(), 2)
    error = caught.value
    assert (error.top, error.law, error.witness) == (2, "join-idempotent", (1,))
    assert str(error) == "downset of 2 violates Boolean law join-idempotent at ('1',)"


@pytest.mark.parametrize("a", [1.5, True, 1.0])
def test_boolean_downset_refuses_what_is_not_an_element(f2, a):
    alg = f2.abstract
    boolean_downset(alg, 1)  # its cache entry must not answer for True or 1.0
    with pytest.raises(TableError, match=f"^no element {a}$"):
        boolean_downset(alg, a)


def test_subtraction_roundtrip(f2, f3, f0):
    for alg in (f2.abstract, f3.abstract, f0):
        rebuilt = subtraction_from_boolean_downsets(complemented_semilattice_of(alg))
        assert rebuilt == alg.minus


def test_subtraction_rejects_non_boolean_downsets():
    with pytest.raises(InconsistencyError):
        subtraction_from_boolean_downsets(complemented_semilattice_of(_three_chain()))


def test_subtraction_names_the_broken_boolean_law():
    # the meet of the chain 0 < 1 < 2, whose downset of 2 has no complements
    sl = ComplementedSemilattice.from_tables(
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]], [[0, 0, 0], [1, 0, 0], [2, 2, 0]]
    )
    with pytest.raises(BooleanLawError) as caught:
        subtraction_from_boolean_downsets(sl)
    error = caught.value
    assert (error.top, error.law, error.witness) == (2, "join-idempotent", (1,))
    assert str(error) == "downset of 2 is not Boolean: law join-idempotent fails at (1,)"


def test_subtraction_one_element():
    sl = ComplementedSemilattice.from_tables([[0]], [[0]])
    assert subtraction_from_boolean_downsets(sl) == ((0,),)


def test_check_subtraction_axioms_flags_bad_table():
    report = check_subtraction_axioms([[0, 0], [0, 0]])
    assert not report.passed


@pytest.mark.parametrize("n", [100, 300])
def test_check_subtraction_axioms_refuses_tables_over_the_size_cap(n):
    # The law tables pad each row to 256 bytes, so 300 elements must be
    # refused before they are built.
    minus = [[0] * n for _ in range(n)]
    with pytest.raises(SizeCapError) as caught:
        FiniteAlgebra.from_tables(minus, minus)
    assert str(caught.value) == f"size {n} exceeds the cap of 64 elements"


def live_filter_families() -> int:
    gc.collect()
    return sum(type(x) is FilterFamily for x in gc.get_objects())


def test_derived_structure_is_computed_once_and_freed_with_its_algebra():
    alg = make_f2().abstract
    for derive in (check_axioms, domain_quotient, enumerate_filters):
        assert derive(alg) is derive(alg)
    assert boolean_downset(alg, H) is boolean_downset(alg, H)
    live = live_filter_families()
    del alg
    assert live_filter_families() == live - 1


def test_monotonicity_failure_witness(f2):
    # corrupt the top's self-restriction; the comparable-pair scan must
    # report the same first counterexample as a raw scan of all 4-tuples
    import itertools

    alg = f2.abstract
    tweaked = edited(alg, "restrict", H, H, K)
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
