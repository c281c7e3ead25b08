"""Derived relations, the domain quotient and the maximal filters on row
masks against the set-of-pairs code they replaced.

``reference_derived_relations``, ``reference_domain_quotient`` and
``reference_maximal_filters`` are the frozenset versions, kept verbatim
but for reading filter members through ``sort_key`` and the quotient's
complement laws through the lemma module's ``check_subtraction_axioms``:
relations are sets of pairs, and membership is tested one pair at a
time.  On the law models, the acceptance corpus, the ``large`` algebras
and the perturbed powersets, small models and corpus algebras of
conftest, the mask versions must give the same relations, quotients and
maximal filters, or raise the same error with the same witness.

``reference_order_masks`` is the element order read pair by pair from
``FiniteAlgebra.leq``.  The down-sets, up-sets and up-set lists, which
the library reads off meet's rows and columns as byte strings, must
equal it on every fixture family and on the perturbed copies, whose
tables are not law-abiding and may put any id in a meet column.
"""

from conftest import edited, outcome, pairs

from diffrest import (
    DomainQuotient,
    InconsistencyError,
    derived_relations,
    domain_quotient,
    enumerate_filters,
    maximal_filters,
)
from lemmas import check_subtraction_axioms


def reference_derived_relations(alg):
    n = alg.size
    leq = frozenset((a, b) for a in range(n) for b in range(n) if alg.leq(a, b))
    domleq = frozenset((a, b) for a in range(n) for b in range(n) if alg.domleq(a, b))
    domeq = frozenset((a, b) for (a, b) in domleq if (b, a) in domleq)

    for a in range(n):
        if (a, a) not in domleq:
            raise InconsistencyError(f"domain preorder is not reflexive at {a}")
        if (alg.zero, a) not in domleq:
            raise InconsistencyError(f"bottom is not domain-least below {a}")
        if (a, alg.zero) in domleq and a != alg.zero:
            raise InconsistencyError(f"{a} is domain-below bottom but nonzero")
    for a, b in sorted(domleq):
        for c in range(n):
            if (b, c) in domleq and (a, c) not in domleq:
                raise InconsistencyError(
                    f"domain preorder is not transitive at ({a}, {b}, {c})"
                )
    for a, b in sorted(leq):
        if (a, b) not in domleq:
            raise InconsistencyError(f"element order not contained in domain preorder at ({a}, {b})")
        if (b, a) in domleq and a != b:
            raise InconsistencyError(f"({a}, {b}) are below/domain-above yet distinct")
    return leq, domleq, domeq


def reference_order_masks(alg):
    """Per element a, the mask of the b <= a, the mask of the b >= a and
    the b >= a in ascending order, from the pairwise order."""
    ids = range(alg.size)
    ups = [[b for b in ids if alg.leq(a, b)] for a in ids]
    down = tuple(sum(1 << b for b in ids if alg.leq(b, a)) for a in ids)
    return down, tuple(sum(1 << b for b in up) for up in ups), tuple(map(bytes, ups))


def reference_domain_quotient(alg):
    n = alg.size
    _, _, domeq = reference_derived_relations(alg)
    class_of_list: list[int] = [-1] * n
    reps: list[int] = []
    for a in range(n):
        if class_of_list[a] != -1:
            continue
        cid = len(reps)
        reps.append(a)
        for b in range(a, n):
            if (a, b) in domeq:
                class_of_list[b] = cid
    class_of = tuple(class_of_list)
    class_rep = tuple(reps)
    k = len(reps)

    meet_t = tuple(
        tuple(class_of[alg.restrict[class_rep[i]][class_rep[j]]] for j in range(k))
        for i in range(k)
    )
    qminus_t = tuple(
        tuple(
            class_of[
                alg.minus[class_rep[i]][alg.restrict[class_rep[j]][class_rep[i]]]
            ]
            for j in range(k)
        )
        for i in range(k)
    )

    for a in range(n):
        for b in range(n):
            if class_of[alg.restrict[a][b]] != meet_t[class_of[a]][class_of[b]]:
                raise InconsistencyError(
                    f"class meet not well defined at elements ({a}, {b})"
                )
            expect = class_of[alg.minus[a][alg.restrict[b][a]]]
            if expect != qminus_t[class_of[a]][class_of[b]]:
                raise InconsistencyError(
                    f"class complement not well defined at elements ({a}, {b})"
                )

    sub_report = check_subtraction_axioms(qminus_t)
    if not sub_report.passed:
        raise InconsistencyError(
            f"quotient violates complement laws: {sub_report.failures()[0].law}"
        )
    for i in range(k):
        for j in range(k):
            if qminus_t[i][qminus_t[i][j]] != meet_t[i][j]:
                raise InconsistencyError(
                    f"quotient meet disagrees with double complement at ({i}, {j})"
                )

    for a in range(n):
        below = [b for b in range(n) if alg.leq(b, a)]
        for b in below:
            for c in below:
                if alg.domleq(b, c) != alg.leq(b, c):
                    raise InconsistencyError(
                        f"orders disagree inside the downset of {a} at ({b}, {c})"
                    )

    return DomainQuotient(alg, class_of, class_rep, meet_t, qminus_t)


def reference_maximal_filters(alg):
    family = enumerate_filters(alg)
    proper = [f for f in family.all_filters if f.proper]
    poset_maxima = {
        frozenset(f.sort_key())
        for f in proper
        if not any(frozenset(f.sort_key()) < frozenset(g.sort_key()) for g in proper)
    }
    criterion = {frozenset(f.sort_key()) for f in family.maximal}
    if criterion != poset_maxima:
        raise InconsistencyError(
            "maximality criterion disagrees with the inclusion poset: "
            f"{sorted(map(sorted, criterion))} vs {sorted(map(sorted, poset_maxima))}"
        )
    return family.maximal


def assert_same(alg) -> str:
    """The mask code agrees with the references on ``alg``; returns the
    quotient's error, or "ok"."""
    expected = outcome(reference_derived_relations, alg)
    got = outcome(derived_relations, alg)
    assert (got if isinstance(expected, str) else tuple(map(pairs, got))) == expected
    quotient = outcome(domain_quotient, alg)
    assert quotient == outcome(reference_domain_quotient, alg)
    if not isinstance(outcome(enumerate_filters, alg), str):
        assert outcome(maximal_filters, alg) == outcome(reference_maximal_filters, alg)
    return quotient if isinstance(quotient, str) else "ok"


def test_order_masks_match_the_pairwise_order(
    small, corpus, large, perturbed_small, perturbed_corpus, perturbed_large, perturbed_powersets
):
    families = small, corpus, large, perturbed_small, perturbed_corpus, perturbed_large
    for family in [*families, perturbed_powersets]:
        for alg in family:
            got = alg.down_masks, alg.up_masks, alg.tables.up_lists
            assert got == reference_order_masks(alg), alg.size


def test_law_algebras_agree_with_the_pair_sets(small, corpus, large):
    algebras = small + corpus + large
    results = [assert_same(alg) for alg in algebras]
    # N1, the non-functional fixture, is the one algebra without a quotient.
    assert results.index("InconsistencyError: (1, 0) are below/domain-above yet distinct") == 5
    assert results.count("ok") == len(algebras) - 1


def test_perturbed_powersets_agree_with_the_pair_sets(perturbed_powersets):
    messages = {assert_same(alg).split(" at ")[0] for alg in perturbed_powersets}
    # Every rewritten check fires at least once.
    for message in (
        "InconsistencyError: domain preorder is not reflexive",
        "InconsistencyError: domain preorder is not transitive",
        "InconsistencyError: element order not contained in domain preorder",
        "InconsistencyError: orders disagree inside the downset of 3",
        "ok",
    ):
        assert message in messages


def test_perturbed_quotients_agree_with_the_pair_sets(perturbed_quotients):
    """Perturbed copies whose sources' domain classes are not all
    singletons reach the checks of the class tables, each with its
    first pair."""
    messages = {assert_same(alg).split(" at ")[0] for alg in perturbed_quotients}
    for message in (
        "InconsistencyError: class meet not well defined",
        "InconsistencyError: class complement not well defined",
        "InconsistencyError: quotient meet disagrees with double complement",
        "ok",
    ):
        assert message in messages


def test_meet_is_named_before_complement_at_the_same_pair(corpus):
    # Acceptance-corpus algebra 66 with restrict[5][1] and minus[5][3]
    # changed: both class tables first fail at the pair (5, 1), and the
    # pair loop checked the meet first.
    alg = edited(edited(corpus[66], "restrict", 5, 1, 2), "minus", 5, 3, 3)
    assert assert_same(alg) == "InconsistencyError: class meet not well defined at elements (5, 1)"
