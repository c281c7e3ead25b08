"""Filter enumeration, the lifted preorder, and the downset bijection.

``reference_ultrafilter_bijection`` is ``ultrafilter_bijection`` as it
was before it was read off the atoms: forward cuts each maximal filter
to the downset, backward takes the upward closure of each ultrafilter
of the downset, and both round trips are checked.  The library's maps
must equal it item by item, in order.
"""

import itertools

import pytest

from conftest import F, G, H, K, M, law_models, outcome

from diffrest import (
    AxiomFailure,
    Filter,
    FiniteAlgebra,
    InconsistencyError,
    TableError,
    boolean_as_diffrest,
    boolean_downset,
    check_axioms,
    domain_quotient,
    enumerate_filters,
    maximal_filters,
    principal_filter,
    ultrafilter_bijection,
)
from diffrest.algebra import mask_iter, mask_of
from lemmas import (
    ImproperFilterError,
    domhat_pair,
    extend_to_maximal,
    filter_down,
    filter_meet,
    filter_up_check,
    is_maximal,
    project_filter,
    ultrafilters,
)


def members(alg, *ids):
    return Filter(alg, mask_of(ids))


def brute_force_filters(alg):
    """All nonempty, upward-closed, meet-closed subsets, by subset scan,
    as masks."""
    out = set()
    elems = range(alg.size)
    for r in range(1, alg.size + 1):
        for combo in itertools.combinations(elems, r):
            s = frozenset(combo)
            if all(b in s for a in s for b in elems if alg.leq(a, b)) and all(
                alg.meet(a, b) in s for a in s for b in s
            ):
                out.add(mask_of(s))
    return out


def test_enumeration_is_exhaustive(f0, f1, f2, f3, f4):
    for alg in (f0, f1.abstract, f2.abstract, f3.abstract, f4.abstract):
        family = enumerate_filters(alg)
        assert {f.members for f in family.all_filters} == brute_force_filters(alg)


def test_f2_filters(f2):
    alg = f2.abstract
    family = enumerate_filters(alg)
    assert {f.members for f in family.all_filters} == {
        mask_of({H}),
        mask_of({K, H}),
        mask_of({M, H}),
        mask_of(range(4)),
    }
    assert {f.members for f in family.maximal} == {
        mask_of({K, H}),
        mask_of({M, H}),
    }


def test_f4_filters_share_a_class(f4):
    alg = f4.abstract
    family = enumerate_filters(alg)
    i = family.index_of(members(alg, F))
    j = family.index_of(members(alg, G))
    assert family.approx_class[i] == family.approx_class[j]
    assert members(alg, F).members != members(alg, G).members


def test_f0_has_only_the_full_filter(f0):
    family = enumerate_filters(f0)
    assert len(family.all_filters) == 1
    assert family.maximal == ()


def test_filter_meet_examples(f2, f4):
    alg = f2.abstract
    full = mask_of(range(4))
    assert filter_meet(members(alg, K, H), members(alg, M, H)).members == full
    alg4 = f4.abstract
    assert filter_meet(members(alg4, F), members(alg4, G)).members == mask_of({F})
    for f in enumerate_filters(alg).all_filters:
        assert filter_meet(f, f).members == f.members


def test_is_maximal_criterion(f2, f1):
    alg = f2.abstract
    assert not is_maximal(members(alg, H))
    assert is_maximal(members(alg, K, H))
    assert maximal_filters(f1.abstract)[0].members == mask_of({K})


def test_filter_validation(f2):
    alg = f2.abstract
    with pytest.raises(Exception, match="upward closed"):
        Filter(alg, mask_of({K}))
    with pytest.raises(Exception, match="nonempty"):
        Filter(alg, 0)


@pytest.mark.parametrize("outside", [7, 4])
def test_filter_rejects_elements_outside_the_algebra(f2, outside):
    with pytest.raises(InconsistencyError, match=f"filter member {outside} is not an element id"):
        Filter(f2.abstract, mask_of({H, outside}))


@pytest.mark.parametrize("mask", [-1, ~mask_of({H})])
def test_filter_rejects_a_negative_mask(f2, mask):
    with pytest.raises(InconsistencyError, match=f"^filter mask {mask} is negative$"):
        Filter(f2.abstract, mask)


@pytest.mark.parametrize("mask", [1.5, True])
def test_filter_rejects_a_mask_that_is_not_an_integer(f2, mask):
    with pytest.raises(InconsistencyError, match=f"^filter mask {mask} is not an integer$"):
        Filter(f2.abstract, mask)


@pytest.mark.parametrize("a", [-1, 4, 1.5, True])
def test_principal_filter_refuses_what_is_not_an_element(f2, a):
    with pytest.raises(TableError, match=f"^no element {a}$"):
        principal_filter(f2.abstract, a)


def test_meet_closure_error_names_the_lexicographically_first_pair():
    # The up-sets of 3 and 11 together: a frozenset of these ids
    # iterates 11 first, so set order would name (11, 3).
    alg = boolean_as_diffrest(4).abstract
    mask = alg.up_masks[3] | alg.up_masks[11]
    with pytest.raises(InconsistencyError, match=r"^\[3, 4, 11\] is not meet-closed at \(3, 11\)$"):
        Filter(alg, mask)


def test_filters_hash_without_hashing_the_algebra(monkeypatch):
    def refuse(self):
        raise AssertionError("FiniteAlgebra.__hash__ was called")

    monkeypatch.setattr(FiniteAlgebra, "__hash__", refuse)
    alg = boolean_as_diffrest(3).abstract
    family = enumerate_filters(alg)
    assert {f: i for i, f in enumerate(family.all_filters)}[family.all_filters[5]] == 5
    pairs = 0
    for a in range(alg.size):
        forward, backward = ultrafilter_bijection(alg, a)
        pairs += len(forward) + len(backward)
    assert pairs > 0


def test_ultrafilter_bijection_f2(f2):
    alg = f2.abstract
    forward, backward = ultrafilter_bijection(alg, H)
    assert len(forward) == len(backward) == 2
    assert set(forward.values()) == {mask_of({K, H}), mask_of({M, H})}

    forward, backward = ultrafilter_bijection(alg, K)
    assert len(forward) == 1
    mu, nu = next(iter(forward.items()))
    assert mu.members == mask_of({K, H})
    assert nu == mask_of({K})


def test_ultrafilter_bijection_at_bottom(f2):
    assert ultrafilter_bijection(f2.abstract, f2.abstract.zero) == ({}, {})


@pytest.mark.parametrize("a", [0.0, False, -1, 4])
def test_ultrafilter_bijection_refuses_what_is_not_an_element(a):
    # 0.0 and False equal the powerset's bottom 0.
    alg = boolean_as_diffrest(2).abstract
    with pytest.raises(TableError, match=f"^no element {a}$"):
        ultrafilter_bijection(alg, a)


def reference_ultrafilter_bijection(
    alg: FiniteAlgebra, a: int
) -> tuple[dict[Filter, int], dict[int, Filter]]:
    """Match maximal filters containing ``a`` with ultrafilters of its downset.

    Forward: intersect with the downset.  Backward: upward closure.
    Ultrafilters are masks.  Both composites are checked to be
    identities.  For ``a`` equal to bottom both maps are empty.  Raises
    ``AxiomFailure`` unless ``alg`` passes the axioms.
    """
    maximal = maximal_filters(alg)
    if a == alg.zero:
        return {}, {}
    downset = boolean_downset(alg, a)
    ufs = set(ultrafilters(downset))

    forward: dict[Filter, int] = {}
    for mu in (f for f in maximal if f.members >> a & 1):
        nu = mu.members & alg.down_masks[a]
        if nu not in ufs:
            raise InconsistencyError(
                f"{mu.render()} does not cut the downset of {alg.element_name(a)} "
                "to an ultrafilter"
            )
        forward[mu] = nu
    backward: dict[int, Filter] = {}
    family = enumerate_filters(alg)
    for nu in sorted(ufs, key=lambda m: list(mask_iter(m))):
        up = alg.up_closure(nu)
        # Reuse the family's filter, already checked upward and meet closed.
        mu = family.all_filters[alg.up_masks.index(up)] if up in alg.up_masks else Filter(alg, up)
        # ``maximal_filters`` checked the family's maximal filters against the poset.
        if mu not in maximal and not is_maximal(mu):
            raise InconsistencyError("upward closure of an ultrafilter is not maximal")
        backward[nu] = mu

    for mu, nu in forward.items():
        if backward[nu].members != mu.members:
            raise InconsistencyError("round trip through the downset moved a filter")
    for nu, mu in backward.items():
        if forward[mu] != nu:
            raise InconsistencyError("round trip through the algebra moved an ultrafilter")
    return forward, backward


def test_ultrafilter_bijection_matches_the_reference(small, n1, corpus, large):
    """Item by item and in order at every element; the same
    ``AxiomFailure`` on N1, the one algebra that fails the axioms."""
    algebras = small + corpus + large + law_models(6)
    pairs = 0
    for alg in algebras:
        for a in range(alg.size):
            got = outcome(ultrafilter_bijection, alg, a)
            expected = outcome(reference_ultrafilter_bijection, alg, a)
            if alg is n1[0]:
                assert got == expected == f"AxiomFailure: {AxiomFailure(check_axioms(alg))}"
                continue
            assert [list(m.items()) for m in got] == [list(m.items()) for m in expected]
            pairs += len(got[0])
    assert pairs > 0


def test_filter_family_refuses_tables_that_fail_the_axioms(n1):
    alg, _ = n1
    message = str(AxiomFailure(check_axioms(alg)))
    calls = [(enumerate_filters, alg), (maximal_filters, alg)]
    calls += [(ultrafilter_bijection, alg, a) for a in range(alg.size)]
    for fn, *args in calls:
        with pytest.raises(AxiomFailure) as caught:
            fn(*args)
        assert str(caught.value) == message


def test_ultrafilter_bijection_at_atom(f4):
    alg = f4.abstract
    forward, backward = ultrafilter_bijection(alg, F)
    assert list(forward.values()) == [mask_of({F})]


def test_extend_to_maximal(f2, f4):
    alg = f2.abstract
    assert extend_to_maximal(members(alg, H)).members == mask_of({K, H})
    for mu in maximal_filters(alg):
        assert extend_to_maximal(mu).members == mu.members
    alg4 = f4.abstract
    assert extend_to_maximal(members(alg4, F)).members == mask_of({F})


def test_extend_rejects_improper(f2):
    full = Filter(f2.abstract, f2.abstract.all_mask)
    with pytest.raises(ImproperFilterError):
        extend_to_maximal(full)


def test_project_filter_f4(f4):
    alg = f4.abstract
    assert project_filter(members(alg, F)) == project_filter(members(alg, G))


def test_filter_down_lands_on_quotient_maximal(f2):
    alg = f2.abstract
    quot = domain_quotient(alg)
    for mu in maximal_filters(alg):
        image = filter_down(mu)
        assert quot.class_of[alg.zero] not in image


def test_filter_up_check(f2, f4):
    alg = f2.abstract
    assert filter_up_check(members(alg, K, H), members(alg, M, H)) == "improper"
    for mu in maximal_filters(alg):
        assert filter_up_check(mu, mu) == "proper-and-maximal"
    alg4 = f4.abstract
    assert (
        filter_up_check(members(alg4, F), members(alg4, G)) == "proper-and-maximal"
    )


def test_principal_embedding(f2, f3, f4):
    for conc in (f2, f3, f4):
        alg = conc.abstract
        for a in range(alg.size):
            for b in range(alg.size):
                assert alg.domleq(a, b) == domhat_pair(
                    alg, principal_filter(alg, a), principal_filter(alg, b)
                )


def test_preorder_collapses_on_shared_upsets(f2, f3, f4):
    # filters with a common element compare by inclusion only
    for conc in (f2, f3, f4):
        alg = conc.abstract
        family = enumerate_filters(alg)
        for f in family.all_filters:
            for g in family.all_filters:
                if f.members & g.members:
                    assert domhat_pair(alg, f, g) == (not g.members & ~f.members)


def test_below_full_filter_means_full(f2, f4):
    for conc in (f2, f4):
        alg = conc.abstract
        full = Filter(alg, alg.all_mask)
        for f in enumerate_filters(alg).all_filters:
            if domhat_pair(alg, f, full):
                assert f.members == full.members


def test_maximal_matches_poset_maxima(f1, f2, f3, f4):
    for conc in (f1, f2, f3, f4):
        maximal_filters(conc.abstract)
