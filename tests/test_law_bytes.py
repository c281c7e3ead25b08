"""The byte-string law kernel against the list-based kernel it replaced.

``reference_LawTables`` and ``reference_compile`` are that kernel, kept
verbatim apart from their names (and ``_variables``, which only it
reads).  Every law's full list of failing assignments must be equal, in
order: on perturbed copies of the two algebras of the benchmark's
``large`` workload, whose witnesses reach ids of 60 and more, on bare
minus tables, and at sizes 1 and 64.  The predicate specification in
``test_law_engine.py`` checks the same scans against the laws' meaning.
"""

from __future__ import annotations

import itertools
import random
import re
from functools import cached_property
from typing import Callable, Iterator

import pytest

from conftest import make_f0
from test_embedding_search import relabel_until, seed1_closure
from lemmas import evaluate_law
from test_law_engine import EXTRA_LAWS, perturbed

from diffrest import FiniteAlgebra, boolean_as_diffrest, check_axioms, check_subtraction_axioms
from diffrest.algebra import (
    _OPS,
    AXIOM_LAWS,
    LAW_TABLE,
    SUBTRACTION_LAWS,
    Law,
    LawTables,
    Table,
    Term,
    _row_variables,
    _source,
    law_failures,
    mask_of,
    parse_law,
)

# ---------------------------------------------------------------------------
# Reference kernel (verbatim)
# ---------------------------------------------------------------------------


class reference_LawTables:
    """What law scans read: each operation's rows and columns (meet
    derived from minus), and the element order as up-sets.

    Rows are lists, as are the rows a scan computes: ``tuple(map(...))``
    would leave each freed row on CPython's tuple free list for its
    length, up to 2,000 of them per length below 20."""

    def __init__(self, minus: Table, restrict: Table | None = None):
        self.zero, self.everything = minus[0][0], range(len(minus))
        self.rows = {"minus": list(map(list, minus))}
        # meet(a, b) = a - (a - b): row a of minus read through itself.
        self.rows["meet"] = [list(map(row.__getitem__, row)) for row in minus]
        if restrict is not None:
            self.rows["restrict"] = list(map(list, restrict))
        self.cols = {op: list(map(list, zip(*table))) for op, table in self.rows.items()}

    @cached_property
    def up_lists(self) -> tuple[tuple[int, ...], ...]:
        """up_lists[a] = the b with a <= b, ascending."""
        meet = self.rows["meet"]
        return tuple(tuple([b for b, m in enumerate(meet[a]) if m == a]) for a in self.everything)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """up_masks[a] = up_lists[a] as a bitmask."""
        return tuple(map(mask_of, self.up_lists))


def _variables(term: Term) -> set[str]:
    if isinstance(term, str):
        return set() if term == "0" else {term}
    return _variables(term[1]) | _variables(term[2])


def reference_compile(law: Law) -> Callable[[reference_LawTables], Iterator[tuple[int, ...]]]:
    """Compile ``law`` into a scan that yields every assignment breaking
    it, in lexicographic order.

    The scan is Python source with one loop per variable but the last;
    an antecedent ``x <= y`` makes y run over the up-set of x.  Inside,
    each side is a whole row of values over the last variable, built
    from table rows (``op[x]``), columns (``op_cols[x]``) and ``map``; a
    row is walked element by element only where the two sides differ.  A
    fixed left side x of "<=" is tested by the bitmask of the right
    side's row against up(x), kept per value of the variables it reads."""
    name = {v: f"v{i}" for i, v in enumerate(law.varnames)} | {"0": "zero"}
    *fixed, last = law.varnames
    above = {y: name[x] for x, y in law.antecedents}
    domain = {v: f"up_lists[{above[v]}]" if v in above else "everything" for v in law.varnames}

    def code(term: Term) -> tuple[str, bool]:
        """Source for ``term``, and whether it is a row over the last variable."""
        if isinstance(term, str):
            return ("dom", True) if term == last else (name[term], False)
        op, (x, x_row), (y, y_row) = term[0], code(term[1]), code(term[2])
        if not (x_row or y_row):
            return f"{op}[{x}][{y}]", False
        if x_row and y_row:
            return f"list(map(list.__getitem__, map({op}.__getitem__, {x}), {y}))", True
        line, values = (f"{op}[{x}]", y) if y_row else (f"{op}_cols[{y}]", x)
        if values == "dom" and domain[last] == "everything":
            return line, True
        return f"list(map({line}.__getitem__, {values}))", True

    def row(term: Term) -> str:
        source, is_row = code(term)
        if not is_row:
            return f"[{source}] * len(dom)"
        return "list(dom)" if source == "dom" else source

    witness = "(" + "".join(name[v] + ", " for v in law.varnames) + ")"
    body = [f"dom = {domain[last]}"]
    left, left_row = code(law.lhs)
    if law.relation == "<=" and not left_row:
        reads = sorted(name[v] for v in _variables(law.rhs) - {last})
        reads += [above[last]] if last in above else []
        body += [
            f"key = ({''.join(v + ', ' for v in reads)})",
            f"image, ups = images.get(key), up_masks[{left}]",
            "if image is None:",
            f"    image = images[key] = mask_of({row(law.rhs)})",
            "if image & ~ups:",
            f"    for {name[last]}, y in zip(dom, {row(law.rhs)}):",
            f"        if not ups >> y & 1: yield {witness}",
        ]
    else:
        # x <= y holds where x & y == x.
        right = law.rhs if law.relation == "=" else ("meet", law.lhs, law.rhs)
        body += [
            f"p, q = {row(law.lhs)}, {row(right)}",
            "if p != q:",
            f"    for {name[last]}, x, y in zip(dom, p, q):",
            f"        if x != y: yield {witness}",
        ]
    lines = ["    " * depth + f"for {name[v]} in {domain[v]}:" for depth, v in enumerate(fixed, 1)]
    lines += ["    " * len(law.varnames) + line for line in body]
    # The scan binds only the tables and helpers its loops read.
    local = {"images": "{}", "zero": "t.zero", "everything": "t.everything"}
    local |= {"up_lists": "t.up_lists", "up_masks": "t.up_masks"}
    for op in _OPS.values():
        local |= {op: f"t.rows[{op!r}]", f"{op}_cols": f"t.cols[{op!r}]"}
    words = set(re.findall(r"\w+", "\n".join(lines)))
    lines[:0] = [f"    {k} = {v}" for k, v in local.items() if k in words]
    namespace = {"mask_of": mask_of}
    exec(compile("def scan(t):\n" + "\n".join(lines), f"<law {law.name}>", "exec"), namespace)
    return namespace["scan"]


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

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
REFERENCE_SCANS = {law: reference_compile(law) for law in LAWS}


def assert_same_failures(minus: Table, restrict: Table | None, laws) -> dict[str, list]:
    """Both kernels break each law at the same assignments, in the same
    order; returns those lists by law name."""
    new, old = LawTables(minus, restrict), reference_LawTables(minus, restrict)
    failures = {}
    for law in laws:
        failures[law.name] = list(law_failures(law, new))
        assert failures[law.name] == list(REFERENCE_SCANS[law](old)), law.name
    return failures


def assert_same_on(algebras) -> tuple[set[str], int]:
    """The laws broken somewhere, and the largest id in a witness."""
    broken, top = set(), 0
    for alg in algebras:
        found = assert_same_failures(alg.minus, alg.restrict, LAWS)
        broken.update(name for name, failures in found.items() if failures)
        top = max([top, *(max(w) for failures in found.values() for w in failures)])
    return broken, top


def large_algebras():
    """The two algebras of the benchmark's ``large`` workload at seed 1."""
    return boolean_as_diffrest(6).abstract, relabel_until(seed1_closure(), 1, 5)


@pytest.fixture(scope="module")
def perturbed_large():
    """20 perturbed copies each of the 64-element powerset and the
    36-element closure."""
    rng = random.Random(13)
    return [perturbed(alg, rng) for alg in large_algebras() for _ in range(20)]


def test_same_failures_at_sizes_1_and_64():
    powerset = boolean_as_diffrest(6).abstract
    assert (make_f0().size, powerset.size) == (1, 64)
    assert assert_same_on([make_f0(), powerset]) == (set(), 0)


def test_same_failures_on_perturbed_large_algebras(perturbed_large):
    broken, top = assert_same_on(perturbed_large)
    # Every law of the library breaks in some copy, at ids up to 60 or more.
    assert set(LAW_TABLE) <= broken, set(LAW_TABLE) - broken
    assert top >= 60


def test_same_failures_on_bare_minus_tables(perturbed_large):
    broken = set()
    for alg in [make_f0(), *large_algebras(), *perturbed_large]:
        failures = assert_same_failures(alg.minus, None, SUBTRACTION_LAWS)
        broken |= {name for name, found in failures.items() if found}
        report = check_subtraction_axioms(alg.minus)
        assert [v.witness for v in report.verdicts] == [(f or [None])[0] for f in failures.values()]
    assert broken == {law.name for law in SUBTRACTION_LAWS}


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
    assert assert_same_failures(minus, restrict, AXIOM_LAWS)["Ax.4"] == expected
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
    loop step to the next; the scans, the reference kernel and the term
    evaluator must still agree on every failing assignment."""
    rng = random.Random(18)
    algebras = [order_free(rng, n) for n in range(1, 7) for _ in range(40)]
    shapes = set()
    for alg in algebras:
        up = alg.tables.up_lists
        shapes.add("empty" if not all(up) else "full")
        shapes.add("irreflexive" if any(a not in up[a] for a in range(alg.size)) else "reflexive")
        if any(c not in up[a] for a in range(alg.size) for b in up[a] for c in up[b]):
            shapes.add("intransitive")
        found = assert_same_failures(alg.minus, alg.restrict, LAWS)
        for law in LAWS:
            assert found[law.name] == evaluated_failures(alg, law), (law.name, alg.size)
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


def test_failures_on_perturbed_large_algebras_are_false_instances(perturbed_large):
    for alg in perturbed_large:
        for law in LAWS:
            for w in law_failures(law, alg.tables):
                assert not evaluate_law(alg, law, w), (law.name, w)
