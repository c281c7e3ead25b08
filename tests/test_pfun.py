"""Pointwise operations, closures, and the identity-function interpretation."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F, G, H, K, M

import diffrest.pfun

from diffrest import (
    AlgebraError,
    BaseMismatchError,
    FunctionalityError,
    PartialFunction,
    PfunError,
    SizeCapError,
    boolean_as_diffrest,
    check_axioms,
    check_derived_laws,
    close_generators,
    format_pf_literal,
    is_injective_pf,
    pf_minus,
    pf_restrict,
    random_generators,
)
from lemmas import reference_canonical_form

BASE = frozenset({1, 2})


def pf(pairs, base=BASE):
    return PartialFunction(base, pairs)


def test_pf_minus_examples(f2):
    h, k, m = f2.elements[H], f2.elements[K], f2.elements[M]
    assert pf_minus(h, k).graph == m.graph
    assert pf_minus(k, k).graph == frozenset()
    assert pf_minus(k, PartialFunction(BASE, ())).graph == k.graph


def test_pf_restrict_examples(f2, f4):
    h, k = f2.elements[H], f2.elements[K]
    assert pf_restrict(k, h).graph == k.graph
    assert pf_restrict(PartialFunction(BASE, ()), h).graph == frozenset()
    f, g = f4.elements[F], f4.elements[G]
    assert pf_restrict(f, g).graph == g.graph


def test_base_mismatch():
    with pytest.raises(BaseMismatchError):
        pf_minus(pf([(1, 1)]), pf([(1, 1)], base=frozenset({1})))


def test_base_mismatch_message_lists_small_bases_in_full():
    with pytest.raises(BaseMismatchError) as err:
        pf_restrict(pf([(1, 1)]), pf([(1, 1)], base=frozenset({1})))
    assert str(err.value) == "bases differ: [1, 2] vs [1]"


def test_base_mismatch_message_stays_short_for_large_bases():
    big, other = range(1, 131_073), range(1, 65_538)
    with pytest.raises(BaseMismatchError) as err:
        close_generators(other, [PartialFunction(big, [(1, 1)])])
    message = str(err.value)
    assert len(message) < 300
    assert message == (
        "generator base [1, 2, 3, ..., 131070, 131071, 131072] (131072 points) "
        "differs from [1, 2, 3, ..., 65535, 65536, 65537] (65537 points)"
    )
    with pytest.raises(BaseMismatchError) as err:
        pf_minus(PartialFunction(big, ()), PartialFunction(other, ()))
    assert len(str(err.value)) < 300
    with pytest.raises(AlgebraError, match="outside the base") as err:
        PartialFunction(other, [(1, 70_000)])
    assert len(str(err.value)) < 300


def test_functionality_rejected():
    with pytest.raises(FunctionalityError) as err:
        pf([(1, 1), (1, 2)])
    assert err.value.offending == ((1, 1), (1, 2))


def test_pair_outside_base_rejected():
    with pytest.raises(AlgebraError, match="outside the base"):
        pf([(1, 3)])


@pytest.mark.parametrize(
    "pair, shown",
    [((1.7, 2.2), "(1.7, 2.2)"), (("1", "2"), "('1', '2')"), ([1, True], "(1, True)")],
    ids=["float", "str", "bool"],
)
def test_points_that_are_not_integers_rejected(pair, shown):
    # Listed after an integer pair, so sorting the mixed graph would fail first.
    message = f"pair {shown} holds a point that is not an integer"
    with pytest.raises(PfunError, match=f"^{re.escape(message)}$"):
        pf([(1, 2), pair])


@pytest.mark.parametrize(
    "base, graph, shown",
    [({True, 2}, [(1, 2)], "True"), ({1.5, 2}, [], "1.5"), ({"a"}, [], "'a'")],
    ids=["bool", "float", "str"],
)
def test_base_points_that_are_not_integers_rejected(base, graph, shown):
    # A closure over the base {True, 2} serialized as "base True..2",
    # which the parser refuses.
    message = f"base point {shown} is not an integer"
    with pytest.raises(PfunError, match=f"^{re.escape(message)}$"):
        PartialFunction(base, graph)


def test_two_sequences_become_pairs():
    assert pf([[1, 2]]) == pf([(1, 2)])
    assert pf([[1, 2]]).graph == frozenset({(1, 2)})


def test_close_generators_f3(f3):
    assert f3.abstract.size == 3
    assert f3.elements[2].graph == frozenset()


def test_close_generators_f2_order(f2):
    # generators in the given order, then the lexicographically least product
    assert [sorted(e.graph) for e in f2.elements] == [
        [(1, 1)],
        [(2, 2)],
        [(1, 1), (2, 2)],
        [],
    ]


def test_close_generators_requires_a_generator():
    with pytest.raises(AlgebraError, match="at least one generator"):
        close_generators(BASE, [])


def test_close_generators_cap():
    base = range(1, 8)
    full = PartialFunction(base, [(x, x) for x in base])
    co = [
        PartialFunction(base, [(x, x) for x in base if x != i]) for i in range(1, 7)
    ]
    with pytest.raises(SizeCapError):
        close_generators(base, [full, *co])


@pytest.fixture
def pair_mask_calls(monkeypatch):
    """The graph lists that ``pfun._pair_masks`` is called with."""
    calls, real = [], diffrest.pfun._pair_masks

    def counted(graphs):
        calls.append(graphs)
        return real(graphs)

    monkeypatch.setattr(diffrest.pfun, "_pair_masks", counted)
    return calls


def test_close_generators_indexes_pairs_twice(pair_mask_calls):
    """Once for the closure, whose masks give the tables, and once for
    the ConcreteAlgebra certificate that checks every product on them."""
    rng, base = random.Random(3), range(1, 5)
    for k in range(1, 30):
        conc = close_generators(base, random_generators(rng, base, k % 4 + 1))
        assert len(pair_mask_calls) == 2 * k
    assert conc.abstract.size > 1


def test_boolean_as_diffrest_indexes_pairs_twice(pair_mask_calls):
    """Once for the identity functions, whose masks give the tables, and
    once for the ConcreteAlgebra certificate that checks every product
    on them."""
    for k, universe in enumerate(range(5), 1):
        assert boolean_as_diffrest(universe).abstract.size > 0
        assert len(pair_mask_calls) == 2 * k


def test_close_relations_n1(n1):
    alg, graphs = n1
    assert alg.size == 4
    assert [sorted(g) for g in graphs] == [
        [(1, 1), (1, 2)],
        [(1, 1)],
        [],
        [(1, 2)],
    ]


def test_concrete_dictionary_coherence(f2):
    alg = f2.abstract
    for i, fi in enumerate(f2.elements):
        for j, fj in enumerate(f2.elements):
            assert f2.elements[alg.minus[i][j]].graph == pf_minus(fi, fj).graph
            assert f2.elements[alg.restrict[i][j]].graph == pf_restrict(fi, fj).graph


def test_boolean_as_diffrest_counts():
    for u, expected in ((0, 1), (1, 2), (2, 4), (3, 8)):
        conc = boolean_as_diffrest(u)
        assert conc.abstract.size == expected
        assert check_axioms(conc.abstract).passed


def test_boolean_as_diffrest_matches_f2(f2):
    conc = boolean_as_diffrest(2)
    assert reference_canonical_form(conc.abstract) == reference_canonical_form(f2.abstract)


def test_is_injective_pf():
    assert is_injective_pf(PartialFunction(BASE, ()))
    assert is_injective_pf(pf([(1, 1)]))
    assert not is_injective_pf(pf([(1, 1), (2, 1)]))


def test_literal_format():
    assert format_pf_literal(pf([(2, 2), (1, 1)])) == "{1->1, 2->2}"
    assert format_pf_literal(PartialFunction(BASE, ())) == "{}"


def test_random_generators_deterministic():
    a = random_generators(random.Random(5), range(1, 5), 3)
    b = random_generators(random.Random(5), range(1, 5), 3)
    assert [g.graph for g in a] == [g.graph for g in b]


def test_random_closures_sound():
    rng = random.Random(11)
    for _ in range(40):
        base = range(1, rng.randint(1, 4) + 1)
        conc = close_generators(base, random_generators(rng, base, rng.randint(1, 3)))
        assert check_axioms(conc.abstract).passed
        assert check_derived_laws(conc.abstract).passed


points = st.sampled_from((1, 2, 3))
functional_graphs = st.dictionaries(points, points, max_size=3).map(
    lambda d: PartialFunction({1, 2, 3}, d.items())
)


@given(functional_graphs, functional_graphs)
def test_restriction_domain_is_intersection(f, g):
    assert pf_restrict(f, g).domain == f.domain & g.domain


@given(functional_graphs, functional_graphs)
def test_restriction_shrinks_second_argument(f, g):
    assert pf_restrict(f, g).graph <= g.graph


@given(functional_graphs, functional_graphs)
def test_double_minus_is_graph_intersection(f, g):
    assert pf_minus(f, pf_minus(f, g)).graph == f.graph & g.graph


@given(functional_graphs, functional_graphs, functional_graphs)
def test_minus_arguments_commute(f, g, h):
    lhs = pf_minus(pf_minus(f, g), h)
    rhs = pf_minus(pf_minus(f, h), g)
    assert lhs.graph == rhs.graph


@given(functional_graphs, functional_graphs, functional_graphs)
def test_restrict_associative(f, g, h):
    assert (
        pf_restrict(f, pf_restrict(g, h)).graph
        == pf_restrict(pf_restrict(f, g), h).graph
    )


@settings(max_examples=30)
@given(st.lists(functional_graphs, min_size=1, max_size=3))
def test_closures_of_arbitrary_generators_satisfy_axioms(gens):
    conc = close_generators({1, 2, 3}, gens)
    assert check_axioms(conc.abstract).passed
