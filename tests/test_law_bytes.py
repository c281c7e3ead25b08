"""The byte-string law kernel: its failure lists, and how its scans are built.

The law engine's specification is the predicates of
``test_law_engine.py``, with the term evaluator ``evaluate_law`` for
laws outside the library.  Here every law's full list of failing
assignments is checked, in order:

- on perturbed copies of the two algebras of the benchmark's ``large``
  workload, whose witnesses reach ids of 60 and more, against lists
  pinned from the list-based kernel that the byte strings replaced,
  and each failure must be a false instance of its law;
- on random tables whose element order is not a partial order, against
  the term evaluator;
- on bare minus tables, where the subtraction laws must fail exactly as
  on the full tables, and the scan of ``check_subtraction_axioms`` in
  the lemma module must report the first failure of each.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from conftest import large_algebras, make_f0
from lemmas import check_subtraction_axioms, evaluate_law
from test_law_engine import EXTRA_LAWS, perturbed

from diffrest import FiniteAlgebra, boolean_as_diffrest, check_axioms
from diffrest.algebra import (
    AXIOM_LAWS,
    LAW_TABLE,
    SUBTRACTION_LAWS,
    Law,
    LawTables,
    _row_variables,
    _source,
    law_failures,
    parse_law,
)

# The library's laws, the term shapes of test_law_engine.EXTRA_LAWS,
# Ax.4 over an up-set, whose rows are computed in the outer loop that
# fixes the up-set, a law whose bare inner variable is read through a
# table's columns, one where every choice of rows gathers pairwise and
# the cheapest pair would combine rows of different widths, and one whose
# cheapest pair would leave a side over one row variable alone.
LAWS = (
    *LAW_TABLE.values(),
    *(parse_law(text, varnames, text) for varnames, text, _ in EXTRA_LAWS),
    parse_law("Ax.4 over up(a)", "abc", "a <= c => (a |> c) & (b |> c) == (a |> b) |> c"),
    parse_law("meet-minus-assoc by columns", "abc", "c & (a - b) == (c & a) - b"),
    parse_law("minus-below", "ab", "(a - b) - a == b - b"),
    parse_law("a |> a == a, b free", "ab", "a |> a == a"),
)

# Per law, sha256 of repr() of its failure lists on the 40 perturbed
# copies, in order, as the list-based kernel gave them.
PINNED_FAILURES = {
    "Ax.1": "358fba89d482676fb07ae17741aa80096fec343a8ba5f42c323b428b6b9972f7",
    "Ax.2": "44bbb1c5b94a719729144ab6ad49ca28d3064c30e728aa3a0a2c63b97ceb3e00",
    "Ax.3": "c3690143ba148a4102caf5b78a56f6b8bc38e5bc5f859ed5ff5e2a28acb21a58",
    "Ax.4": "24d4c9e198d0b6639cfcb125a351b23a4ad38ef727483accbb2d9222c93eced2",
    "Ax.5": "a89ee422d07a9c088af0e3d371e60c58eefe7165ce533057501b15f34f1f88d8",
    "meet-minus-disjoint": "45be29a39b8b8524c20ba990a9523e36ee2054d4e5046e691487bd064a281195",
    "minus-absorbs-meet": "67e6118c87a6bd5c64366c003cfe2bd74f75d549d13dcc66f652e24a2acf7a9d",
    "meet-minus-assoc": "659bb2569cbb4105f352989b6db98659c6cf35aace0bb277f820f77fa37031b8",
    "restrict-below": "6d8059c7ca72e4bec2559e195364ac9e65a683cda5a4e8f4640cc8d474cafac7",
    "restrict-assoc": "0254265635b2740d3a215b2200b9e14ca2339977bdffee3e9642b8d265bdbadf",
    "restrict-meet-absorb": "a94154f74a88893fa039d04ae66d6c40329b8d98a53c536f30570750596344bb",
    "restrict-over-meet": "f76f29f4fe0577f84ecec17c6d4981bea49f4af69e2d3c50dd7bee1881563e67",
    "restrict-over-minus": "96790f7dcb31be619fbea228720e77960ef3c9a7da088813a9078e83df834dfc",
    "restrict-monotone": "8e12951ac610d5e54890bf2ad2463b027818b8ef68956d7c2e938013011b0076",
    "a |> a == a": "5fe96f82a6dfbdb2f83629b011b2eb4670b583c34f95649ab00a38c2fa20dd4a",
    "a & b <= b": "9ed6f92e7ee2a0087a67db1051fb242d269948cf341fdb76b0706ca4d68ad08c",
    "a <= b => a |> b == a": "b2bc664773a7640849622282b6653f07090d1e76e8567f04317e0e43a699a79b",
    "0 <= a - b": "5fe96f82a6dfbdb2f83629b011b2eb4670b583c34f95649ab00a38c2fa20dd4a",
    "Ax.4 over up(a)": "e314107e5205217554f0f7442f869e149f41aaa98a2b4a82d3c60784e631a043",
    "meet-minus-assoc by columns":
        "90944ec4a9a4d8d4a76710a94b844e7bdff73372b290038a8b6b576dd6d60ade",
    "minus-below": "89c9db2ae32fb6c9814795399260bc6d89cdc84a6209a930e7c84dd646f4f186",
    "a |> a == a, b free": "5fe96f82a6dfbdb2f83629b011b2eb4670b583c34f95649ab00a38c2fa20dd4a",
}


@pytest.fixture(scope="module")
def perturbed_large():
    """20 perturbed copies each of the 64-element powerset and the
    36-element closure."""
    rng = random.Random(13)
    return [perturbed(alg, rng) for alg in large_algebras() for _ in range(20)]


@pytest.fixture(scope="module")
def large_failures(perturbed_large):
    """Each law's failures on each perturbed copy, by law name."""
    return [
        {law.name: list(law_failures(law, alg.tables)) for law in LAWS} for alg in perturbed_large
    ]


def test_same_failures_on_perturbed_large_algebras(perturbed_large, large_failures):
    broken, top = set(), 0
    for found in large_failures:
        broken.update(name for name, failures in found.items() if failures)
        top = max([top, *(max(w) for failures in found.values() for w in failures)])
    for law in LAWS:
        lists = repr([found[law.name] for found in large_failures])
        assert hashlib.sha256(lists.encode()).hexdigest() == PINNED_FAILURES[law.name], law.name
    # Every law of the library breaks in some copy, at ids up to 60 or more.
    assert set(LAW_TABLE) <= broken, set(LAW_TABLE) - broken
    assert top >= 60


def test_failures_on_perturbed_large_algebras_are_false_instances(perturbed_large, large_failures):
    for alg, found in zip(perturbed_large, large_failures, strict=True):
        for law in LAWS:
            for w in found[law.name]:
                assert not evaluate_law(alg, law, w), (law.name, w)


def test_same_failures_on_bare_minus_tables(perturbed_large, large_failures):
    # F0 and the two large algebras break no law (test_law_engine.py).
    names = [law.name for law in SUBTRACTION_LAWS]
    expected = [dict.fromkeys(names, [])] * 3 + [{n: f[n] for n in names} for f in large_failures]
    broken = set()
    for alg, want in zip([make_f0(), *large_algebras(), *perturbed_large], expected, strict=True):
        bare = LawTables(alg.minus)
        failures = {law.name: list(law_failures(law, bare)) for law in SUBTRACTION_LAWS}
        assert failures == want
        broken |= {name for name, found in failures.items() if found}
        report = check_subtraction_axioms(alg.minus)
        assert [v.witness for v in report.verdicts] == [(f or [None])[0] for f in failures.values()]
    assert broken == set(names)


# ---------------------------------------------------------------------------
# Row variables
# ---------------------------------------------------------------------------

# A law runs its rows over two variables unless every pair would combine
# a row over one variable with a row over both; those five keep one row
# variable, as before.  Each variable of
# restrict-meet-absorb is read through both operands of its outer
# restrict, so it keeps the one pairwise gather, now over whole rows.
ROW_VARIABLES = {
    "Ax.1": ("b",),
    "Ax.2": ("a", "b"),
    "Ax.3": ("a", "c"),
    "Ax.4": ("a", "b"),
    "Ax.5": ("b",),
    "meet-minus-disjoint": ("a",),
    "minus-absorbs-meet": ("b",),
    "meet-minus-assoc": ("b", "c"),
    "restrict-below": ("b",),
    "restrict-assoc": ("b", "c"),
    "restrict-meet-absorb": ("a", "b"),
    "restrict-over-meet": ("b", "c"),
    "restrict-over-minus": ("b", "c"),
    "restrict-monotone": ("b", "d"),
}


def test_row_variable_of_every_law():
    assert {name: _row_variables(law) for name, law in LAW_TABLE.items()} == ROW_VARIABLES


def test_scans_loop_over_all_but_their_row_variables():
    loops = {}
    for name, law in LAW_TABLE.items():
        # The failure walk's loops are the ones over zip(...).
        lines = _source(law).splitlines()
        loops[name] = sum(line.lstrip().startswith("for ") and "zip(" not in line for line in lines)
        assert loops[name] == len(law.varnames) - len(ROW_VARIABLES[name]), name
        if len(law.varnames) > 2:
            assert loops[name] <= len(law.varnames) - 2, name
    assert loops["restrict-monotone"] == 2


def gathers_pairwise(law: Law) -> bool:
    """Whether the scan of ``law`` indexes list rows one pair at a time."""
    return "list.__getitem__" in _source(law)


def test_only_restrict_meet_absorb_gathers_pairwise():
    powerset = boolean_as_diffrest(6).abstract
    for law in LAW_TABLE.values():
        assert list(law_failures(law, LawTables(powerset.minus, powerset.restrict))) == []
    gathering = {law.name for law in LAW_TABLE.values() if gathers_pairwise(law)}
    assert gathering == {"restrict-meet-absorb"}


def test_axiom_scans_build_no_list_rows():
    assert not any(map(gathers_pairwise, AXIOM_LAWS))
    for alg in large_algebras():
        assert check_axioms(FiniteAlgebra.from_tables(alg.minus, alg.restrict)).passed


def test_ax4_failures_come_out_sorted_across_the_loop_order():
    # The 4-element powerset algebra with restrict[0][1] set to 1, not 0.
    minus = ((0, 0, 0, 0), (1, 0, 0, 1), (2, 3, 0, 1), (3, 3, 0, 0))
    restrict = ((0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 2, 3), (0, 0, 3, 3))
    expected = [(0, 1, 2), (0, 3, 1), (1, 3, 1), (3, 0, 1), (3, 1, 1)]
    # The scan's loops fix a, then c, and meet (0, 3, 1), with b high and
    # c low, before the lexicographically first failure (0, 1, 2).
    assert min(expected, key=lambda w: (w[0], w[2], w[1])) == (0, 3, 1)
    assert list(law_failures(LAW_TABLE["Ax.4"], LawTables(minus, restrict))) == expected
    report = check_axioms(FiniteAlgebra.from_tables(minus, restrict))
    assert report.verdict("Ax.4").witness == (0, 1, 2)


# ---------------------------------------------------------------------------
# Element orders that are not partial orders
# ---------------------------------------------------------------------------


def order_free(rng: random.Random, n: int) -> FiniteAlgebra:
    """Random tables over n elements.  minus keeps the constant diagonal
    that FiniteAlgebra requires and is otherwise arbitrary, so the order
    ``a <= b`` iff ``a & b == a`` need not be reflexive or transitive,
    and an up-set may be empty."""
    minus = [[0 if a == b else rng.randrange(n) for b in range(n)] for a in range(n)]
    restrict = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    return FiniteAlgebra.from_tables(minus, restrict)


def evaluated_failures(alg: FiniteAlgebra, law: Law) -> list[tuple[int, ...]]:
    """Every assignment the term evaluator finds false, in lexicographic order."""
    assignments = itertools.product(range(alg.size), repeat=len(law.varnames))
    return [w for w in assignments if not evaluate_law(alg, law, w)]


def test_same_failures_where_the_order_is_not_a_partial_order():
    """Up-sets that are empty, miss their own element or are not
    transitive give empty rows, and rows of different lengths from one
    loop step to the next; the scans and the term evaluator must still
    agree on every failing assignment."""
    rng = random.Random(18)
    algebras = [order_free(rng, n) for n in range(1, 7) for _ in range(40)]
    shapes = set()
    for alg in algebras:
        up = alg.tables.up_lists
        shapes.add("empty" if not all(up) else "full")
        shapes.add("irreflexive" if any(a not in up[a] for a in range(alg.size)) else "reflexive")
        if any(c not in up[a] for a in range(alg.size) for b in up[a] for c in up[b]):
            shapes.add("intransitive")
        for law in LAWS:
            assert list(law_failures(law, alg.tables)) == evaluated_failures(alg, law), (
                law.name, alg.size
            )
    assert shapes == {"empty", "full", "irreflexive", "reflexive", "intransitive"}


def test_up_picks_pick_each_up_set_as_a_sequence():
    # Up-sets of two or more elements, of one and of none all pick a
    # sequence that joins to the up-set.
    rng = random.Random(18)
    sizes = set()
    for alg in [order_free(rng, n) for n in range(1, 7) for _ in range(40)]:
        items = [bytes([e]) for e in range(alg.size)]
        for up, pick in zip(alg.tables.up_lists, alg.tables.up_picks):
            assert b"".join(pick(items)) == up
            sizes.add(min(len(up), 2))
    assert sizes == {0, 1, 2}
