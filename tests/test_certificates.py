"""The Boolean-downset certificate and the filter family against the
paths they replaced.

The battery of ``_boolean_law_failure``, run with the certificate
switched off, is the reference for ``_boolean_certificate``: on every
downset below the certificate holds exactly when the battery finds no
broken law.  Both get each member's down-set within the downset read
pair by pair from the meet table.  ``reference_family`` is the
pair-walk ``enumerate_filters`` as it was before the family was read
off the order, kept verbatim with its pairwise ``domhat_pair``, now in
the lemma module.  The family must equal it wherever the axioms hold,
and ``enumerate_filters`` must refuse with ``AxiomFailure`` wherever
they fail; the reference still runs on every algebra below.
"""

import pytest

from conftest import edited, law_models, outcome

from diffrest import (
    AxiomFailure,
    BooleanLawError,
    FiniteAlgebra,
    Filter,
    FilterFamily,
    InconsistencyError,
    boolean_as_diffrest,
    boolean_downset,
    check_axioms,
    enumerate_filters,
    principal_filter,
)
from diffrest import algebra
from diffrest.algebra import _boolean_certificate, mask_iter, mask_of
from lemmas import domhat_pair as reference_domhat_pair, is_maximal

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def pairwise_downs(meet, members) -> list[int]:
    """Per member b, the mask of the members c with ``meet[c][b] == c``."""
    return [mask_of(c for c in members if meet[c][b] == c) for b in members]


def battery(meet, comp, top, bottom, members, downs):
    """``_boolean_law_failure`` with the certificate switched off."""
    certificate = algebra._boolean_certificate
    algebra._boolean_certificate = lambda *args: False
    try:
        return algebra._boolean_law_failure(meet, comp, top, bottom, members, downs)
    finally:
        algebra._boolean_certificate = certificate


def reference_filter_error(alg: FiniteAlgebra, members: frozenset[int]) -> str | None:
    """The checks of ``Filter`` before meet closure moved to masks, with
    the pairs taken in increasing order (they were in set order)."""
    if not members:
        return "filters are nonempty"
    mask = mask_of(members)
    if alg.up_closure(mask) != mask:
        return f"{sorted(members)} is not upward closed"
    for a in sorted(members):
        for b in sorted(members):
            if alg.meet(a, b) not in members:
                return f"{sorted(members)} is not meet-closed at ({a}, {b})"
    return None


def reference_family(alg: FiniteAlgebra) -> FilterFamily:
    """Enumerate every filter, the lifted preorder, and its classes."""
    n = alg.size
    filters = tuple(principal_filter(alg, a) for a in range(n))
    if len({f.members for f in filters}) != n:
        raise InconsistencyError("principal upsets are not distinct")

    domhat = set()
    for i, f in enumerate(filters):
        for j, g in enumerate(filters):
            if reference_domhat_pair(alg, f, g):
                domhat.add((i, j))
    below = tuple(mask_of(j for j in range(n) if (i, j) in domhat) for i in range(n))

    # The lifted preorder must contain reverse inclusion.
    for i, f in enumerate(filters):
        for j, g in enumerate(filters):
            if not g.members & ~f.members and (i, j) not in domhat:
                raise InconsistencyError(
                    f"lifted preorder misses inclusion at ({i}, {j})"
                )

    approx = [-1] * n
    next_class = 0
    for i in range(n):
        if approx[i] != -1:
            continue
        approx[i] = next_class
        for j in range(i + 1, n):
            if (i, j) in domhat and (j, i) in domhat:
                approx[j] = next_class
        next_class += 1

    maximal = tuple(f for f in filters if f.proper and is_maximal(f))
    return FilterFamily(alg, filters, maximal, below, tuple(approx))


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def downset_verdicts(alg: FiniteAlgebra) -> list[bool]:
    """Certificate against battery on every downset of ``alg``, and
    ``boolean_downset`` against the battery's law and witness; returns
    the certificate's verdicts."""
    verdicts = []
    for a in range(alg.size):
        members = tuple(b for b in range(alg.size) if alg.leq(b, a))
        meet = alg.tables["meet"]
        args = (meet, alg.minus[a], a, alg.zero, members, pairwise_downs(meet, members))
        holds = _boolean_certificate(*args)
        failure = battery(*args)
        assert holds == (failure is None), (a, failure)
        if failure is None:
            assert boolean_downset(alg, a).members == members
        else:
            with pytest.raises(BooleanLawError) as caught:
                boolean_downset(alg, a)
            assert (caught.value.top, caught.value.law, caught.value.witness) == (a, *failure)
        verdicts.append(holds)
    return verdicts


def checked_filter(alg: FiniteAlgebra, members: frozenset[int]) -> Filter | None:
    """``Filter`` on the mask of ``members``, or None when the reference
    rejects ``members``, in which case ``Filter`` must raise its message."""
    built = outcome(Filter, alg, mask_of(members))
    expected = reference_filter_error(alg, members)
    if expected is not None:
        assert built == f"InconsistencyError: {expected}"
        return None
    assert built.members == mask_of(members)
    return built


def assert_same_family(alg: FiniteAlgebra) -> bool:
    """The family equals the reference's where the axioms hold, and is
    refused with ``AxiomFailure`` where they fail; each principal filter
    is checked like the reference.  Returns whether the family was built."""
    report, expected = check_axioms(alg), outcome(reference_family, alg)
    if report.passed:
        assert isinstance(expected, FilterFamily), expected
    else:
        expected = f"AxiomFailure: {AxiomFailure(report)}"
    assert outcome(enumerate_filters, alg) == expected
    for up in alg.up_masks:
        checked_filter(alg, frozenset(mask_iter(up)))
    return report.passed


def test_certificate_matches_the_battery_on_law_models(small, corpus, large):
    algebras = small + corpus + large
    assert len(algebras) == 21 + 200 + 2
    verdicts = [v for alg in algebras for v in downset_verdicts(alg)]
    assert len(verdicts) == sum(alg.size for alg in algebras)


def test_certificate_matches_the_battery_on_perturbed_powersets(perturbed_powerset_minus):
    verdicts = [v for alg in perturbed_powerset_minus for v in downset_verdicts(alg)]
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


def test_certificate_needs_bottom_among_the_members():
    # A one-member "downset" without bottom: every other check passes.
    meet = ((0, 0), (0, 1))
    args = (meet, (0, 1), 1, 0, (1,), pairwise_downs(meet, (1,)))
    assert not _boolean_certificate(*args)
    assert battery(*args) == ("bottom-member", (1,))


def test_lifted_preorder_matches_the_pair_walk(small, n1, corpus, large):
    algebras = small + corpus + large + law_models(6)
    assert [assert_same_family(alg) for alg in algebras] == [alg is not n1[0] for alg in algebras]


def test_lifted_preorder_matches_the_pair_walk_on_perturbed_restrict_tables(perturbed_restrict):
    built = [assert_same_family(alg) for alg in perturbed_restrict]
    assert (len(built), built.count(True)) == (190, 12)


# ---------------------------------------------------------------------------
# Structured witnesses
# ---------------------------------------------------------------------------

# (table entry of boolean_as_diffrest(3) changed, new value, top, law, witness)
BROKEN_POWERSETS = (
    ((0, 1), 1, 1, "bottom-member", (1,)),
    ((1, 0), 0, 2, "complement-closure", (5,)),
    ((1, 0), 0, 3, "meet-closure", (2, 4)),
    ((2, 0), 0, 3, "join-closure", (1, 5)),
    ((1, 5), 0, 5, "join-idempotent", (1,)),
    ((1, 5), 0, 2, "complement-meet", (1,)),
    ((0, 1), 1, 2, "meet-commutative", (0, 1)),
    ((0, 2), 2, 3, "meet-associative", (0, 1, 2)),
    ((1, 2), 1, 3, "distributive", (1, 1, 2)),
)


@pytest.mark.parametrize(
    "cell, value, top, law, witness", BROKEN_POWERSETS, ids=[c[3] for c in BROKEN_POWERSETS]
)
def test_boolean_law_error_names_the_law_and_witness(cell, value, top, law, witness):
    alg = edited(boolean_as_diffrest(3).abstract, "minus", *cell, value)
    with pytest.raises(BooleanLawError) as caught:
        boolean_downset(alg, top)
    assert (caught.value.top, caught.value.law, caught.value.witness) == (top, law, witness)
    names = tuple(map(str, witness))
    assert str(caught.value) == f"downset of {top} violates Boolean law {law} at {names}"
