"""Derived relations, the domain quotient and the maximal filters on row
masks against the set-of-pairs code they replaced.

``reference_derived_relations``, ``reference_domain_quotient`` and
``reference_maximal_filters`` are the frozenset versions, kept verbatim
but for reading filter members through ``sort_key`` and the quotient's
complement laws through the lemma module's ``check_subtraction_axioms``:
relations are sets of pairs, and membership is tested one pair at a
time.  On the law models, the acceptance corpus, the ``large`` algebras
and perturbed powersets, the mask versions must give the same
relations, quotients and maximal filters, or raise the same message
with the same witness.
"""

import random

from conftest import build_corpus, large_algebras, small_algebras

from diffrest import (
    DomainQuotient,
    FiniteAlgebra,
    InconsistencyError,
    TableError,
    boolean_as_diffrest,
    derived_relations,
    domain_quotient,
    enumerate_filters,
    maximal_filters,
)
from diffrest.algebra import mask_iter
from lemmas import check_subtraction_axioms
from test_certificates import perturbed


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
        below = list(mask_iter(alg.down_masks[a]))
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


def pairs(rows) -> frozenset[tuple[int, int]]:
    return frozenset((a, b) for a, row in enumerate(rows) for b in mask_iter(row))


def outcome(build, alg):
    try:
        return build(alg)
    except InconsistencyError as e:
        return str(e)


def assert_same(alg) -> str:
    """The mask code agrees with the references on ``alg``; returns the
    first message of the quotient, or "ok"."""
    expected = outcome(reference_derived_relations, alg)
    got = outcome(derived_relations, alg)
    assert (got if isinstance(expected, str) else tuple(map(pairs, got))) == expected
    quotient = outcome(domain_quotient, alg)
    assert quotient == outcome(reference_domain_quotient, alg)
    if not isinstance(outcome(enumerate_filters, alg), str):
        assert outcome(maximal_filters, alg) == outcome(reference_maximal_filters, alg)
    return quotient if isinstance(quotient, str) else "ok"


def test_law_algebras_agree_with_the_pair_sets():
    algebras = small_algebras() + [conc.abstract for conc in build_corpus()] + large_algebras()
    results = [assert_same(alg) for alg in algebras]
    # N1, the non-functional fixture, is the one algebra without a quotient.
    assert results.index("(1, 0) are below/domain-above yet distinct") == 5
    assert results.count("ok") == len(algebras) - 1


def test_perturbed_powersets_agree_with_the_pair_sets():
    rng = random.Random(15)
    sources = [boolean_as_diffrest(u).abstract for u in (2, 3, 4)]
    messages = set()
    for _ in range(2000):
        try:
            alg = perturbed(rng.choice(sources), rng, rng.choice(["minus", "restrict"]))
        except TableError:
            continue
        messages.add(assert_same(alg).split(" at ")[0])
    # Every rewritten check fires at least once.
    for message in (
        "domain preorder is not reflexive",
        "domain preorder is not transitive",
        "element order not contained in domain preorder",
        "orders disagree inside the downset of 3",
        "ok",
    ):
        assert message in messages


def test_perturbed_quotients_agree_with_the_pair_sets():
    """Perturbed corpus algebras whose domain classes are not all
    singletons reach the checks of the class tables, each with its
    first pair."""
    corpus = [conc.abstract for conc in build_corpus()]
    sources = [a for a in corpus if a.size <= 8 and domain_quotient(a).n_classes < a.size]
    rng = random.Random(3)
    messages = set()
    for _ in range(600):
        try:
            alg = perturbed(rng.choice(sources), rng, rng.choice(["minus", "restrict"]))
        except TableError:
            continue
        messages.add(assert_same(alg).split(" at ")[0])
    for message in (
        "class meet not well defined",
        "class complement not well defined",
        "quotient meet disagrees with double complement",
        "ok",
    ):
        assert message in messages


def test_meet_is_named_before_complement_at_the_same_pair():
    # Acceptance-corpus algebra 66 with restrict[5][1] and minus[5][3]
    # changed: both class tables first fail at the pair (5, 1), and the
    # pair loop checked the meet first.
    minus = [
        [3, 0, 0, 0, 5, 4], [1, 3, 1, 1, 1, 1], [2, 2, 3, 2, 2, 2],
        [3, 3, 3, 3, 3, 3], [3, 4, 4, 4, 3, 4], [3, 5, 5, 3, 5, 3],
    ]
    restrict = [
        [0, 1, 2, 3, 4, 5], [4, 1, 3, 3, 4, 3], [5, 3, 2, 3, 3, 5],
        [3, 3, 3, 3, 3, 3], [4, 1, 3, 3, 4, 3], [5, 2, 2, 3, 3, 5],
    ]
    alg = FiniteAlgebra.from_tables(minus, restrict)
    assert assert_same(alg) == "class meet not well defined at elements (5, 1)"
