"""Concrete partial functions on a finite base and their algebras.

A partial function is a functional set of pairs over a base set of
integer points.  The two pointwise operations are set difference of
graphs and restriction of the second argument to the domain of the
first.  Closure, table derivation and the product walk that certifies
graphs against tables index the pairs that occur in a list of graphs
and hold each graph as an int mask over that index, so each operation
is one bitwise step.  Generator sets are closed into concrete algebras
whose operation tables are handed to :mod:`diffrest.algebra`.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .algebra import (
    SIZE_CAP,
    AlgebraError,
    FiniteAlgebra,
    InconsistencyError,
    SizeCapError,
    Table,
    TableError,
    _checked_make,
    _frozen,
    check_axioms,
    mask_iter,
)

Pair = tuple[int, int]
Graph = frozenset[Pair]


def _base_text(base: Iterable[int]) -> str:
    """A base for an error message: in full up to 12 points, otherwise
    its first and last three points and its size."""
    points = sorted(base)
    if len(points) <= 12:
        return str(points)
    head = ", ".join(map(str, points[:3]))
    tail = ", ".join(map(str, points[-3:]))
    return f"[{head}, ..., {tail}] ({len(points)} points)"


class PfunError(AlgebraError):
    """Base class for partial-function construction errors."""


class FunctionalityError(PfunError):
    """A graph maps some point to two different values."""

    def __init__(self, offending: tuple[Pair, Pair]):
        self.offending = offending
        super().__init__(f"not functional: {offending[0]} and {offending[1]}")


class BaseMismatchError(PfunError):
    """Two operands live over different base sets."""


class DictionaryError(PfunError, InconsistencyError):
    """A list of partial functions does not certify the abstract tables."""


class NotClosedError(DictionaryError):
    """A product of two listed partial functions is not in the list."""


class _PartialFunctionFields(NamedTuple):
    base: frozenset[int]
    graph: Graph


class PartialFunction(_PartialFunctionFields):
    """An immutable partial function on a finite base set."""

    __setattr__ = __delattr__ = _frozen
    _make = classmethod(_checked_make)

    def __new__(cls, base: Iterable[int], graph: Iterable[Pair]):
        base_f = frozenset(base)
        for p in base_f:  # True == 1, so a bool would pass for a point
            if type(p) is not int:
                raise PfunError(f"base point {p!r} is not an integer")
        pairs = [(x, y) for x, y in graph]
        for x, y in pairs:  # before sorting, which mixed types would break
            if type(x) is not int or type(y) is not int:
                raise PfunError(f"pair ({x!r}, {y!r}) holds a point that is not an integer")
        graph_f = frozenset(pairs)
        seen: dict[int, int] = {}
        for x, y in sorted(graph_f):
            if x not in base_f or y not in base_f:
                raise PfunError(f"pair ({x}, {y}) is outside the base {_base_text(base_f)}")
            if x in seen and seen[x] != y:
                raise FunctionalityError(((x, seen[x]), (x, y)))
            seen[x] = y
        return tuple.__new__(cls, (base_f, graph_f))

    @cached_property
    def domain(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.graph)

    def __repr__(self) -> str:
        return f"PartialFunction({format_pf_literal(self)})"


def format_pf_literal(f: PartialFunction) -> str:
    """Render a graph in the literal syntax, e.g. ``{1->1, 2->2}``."""
    inner = ", ".join(f"{x}->{y}" for x, y in sorted(f.graph))
    return "{" + inner + "}"


def pf_minus(f: PartialFunction, g: PartialFunction) -> PartialFunction:
    """Relative complement: the pairs of ``f`` not in ``g``."""
    if f.base != g.base:
        raise BaseMismatchError(
            f"bases differ: {_base_text(f.base)} vs {_base_text(g.base)}"
        )
    return PartialFunction(f.base, f.graph - g.graph)


def pf_restrict(f: PartialFunction, g: PartialFunction) -> PartialFunction:
    """Domain restriction: ``g`` cut down to the domain of ``f``."""
    if f.base != g.base:
        raise BaseMismatchError(
            f"bases differ: {_base_text(f.base)} vs {_base_text(g.base)}"
        )
    dom = f.domain
    return PartialFunction(f.base, frozenset(p for p in g.graph if p[0] in dom))


def is_injective_pf(f: PartialFunction) -> bool:
    return len({y for _, y in f.graph}) == len(f.graph)


# ---------------------------------------------------------------------------
# Closure of generator sets
# ---------------------------------------------------------------------------


def _pair_masks(graphs: Sequence[Graph]):
    """Index the pairs of ``graphs``: bit i of a mask is the i-th pair of
    their sorted union.  Returns the pairs, each graph's mask, their
    domain masks, and the map from a mask to its domain mask, the OR of
    the rows (pairs by first point) of its first points.  Minus is then
    ``g & ~h`` and restrict ``h & dom(g)``; products keep to their
    operands' pairs, so the index of a closure's seeds covers it all.
    """
    pairs = sorted(set().union(*graphs))
    rows: dict[int, int] = {}
    for i, (x, _) in enumerate(pairs):
        rows[x] = rows.get(x, 0) | 1 << i

    def dom(mask: int) -> int:
        out = 0
        while rest := mask & ~out:
            out |= rows[pairs[(rest & -rest).bit_length() - 1][0]]
        return out

    bit = {p: 1 << i for i, p in enumerate(pairs)}
    masks = [sum(bit[p] for p in g) for g in graphs]
    return pairs, masks, [dom(g) for g in masks], dom


def _close_masks(seeds: Sequence[Graph], cap: int = SIZE_CAP):
    """Close graphs under the two set-theoretic operations.

    Discovery order: seeds first (duplicates dropped), then products in
    breadth-first waves with ties broken by lexicographic graph.  A wave
    combines only pairs that involve an element of the previous wave,
    since older pairs were combined before.  The operations never assume
    functionality, so relations close fine too.  Returns the seeds'
    pairs and the closure's masks and domain masks over them.
    """
    pairs, masks, _, dom = _pair_masks(seeds)
    elems = list(dict.fromkeys(masks))
    doms = [dom(g) for g in elems]
    index, wave = set(elems), 0
    while True:
        fresh: set[int] = set()
        for i, (g, d) in enumerate(zip(elems, doms)):
            tail = elems if i >= wave else elems[wave:]
            fresh.update([g & ~h for h in tail], [h & d for h in tail])
        fresh -= index
        if not fresh:
            return pairs, elems, doms
        wave = len(elems)
        for g in sorted(fresh, key=lambda g: list(mask_iter(g))):
            if len(elems) >= cap:
                raise SizeCapError(f"closure exceeds the cap of {cap} elements")
            index.add(g)
            elems.append(g)
            doms.append(dom(g))


def _graphs_of(pairs, masks) -> list[Graph]:
    return [frozenset(pairs[i] for i in mask_iter(g)) for g in masks]


def _tables_of(masks, doms) -> tuple[Table, Table]:
    """Both tables of a closed list of graphs with these masks and domain masks."""
    index = {g: i for i, g in enumerate(masks)}
    minus_t = tuple(tuple(index[g & ~h] for h in masks) for g in masks)
    return minus_t, tuple(tuple(index[h & d] for h in masks) for d in doms)


def _broken_products(alg: FiniteAlgebra, masks, doms):
    """Yield ``(op, a, b, product)`` for each product of the graphs with
    these masks and domain masks that is not the graph ``alg``'s table
    names; a, then b, with minus before restrict.  None is yielded
    exactly when the graphs realise both tables."""
    for a, (g, d) in enumerate(zip(masks, doms)):
        minus_row, restrict_row = alg.minus[a], alg.restrict[a]
        for b, h in enumerate(masks):
            if masks[minus_row[b]] != g & ~h:
                yield "minus", a, b, g & ~h
            if masks[restrict_row[b]] != h & d:
                yield "restrict", a, b, h & d


class _ConcreteFields(NamedTuple):
    base: frozenset[int]
    elements: tuple[PartialFunction, ...]
    abstract: FiniteAlgebra


class ConcreteAlgebra(_ConcreteFields):
    """A closed list of partial functions plus its abstract tables.

    Construction checks every product on pair masks against the tables,
    so a value of this type is a certificate that ``abstract`` really is
    the algebra of its ``elements``.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(
        cls, base: frozenset[int], elements: tuple[PartialFunction, ...], abstract: FiniteAlgebra
    ):
        graphs = [f.graph for f in elements]
        if len(set(graphs)) != len(graphs):
            raise DictionaryError("concrete elements are not distinct")
        for f in elements:
            if f.base != base:
                raise BaseMismatchError("element base differs from algebra base")
        if abstract.size != len(elements):
            raise DictionaryError(
                f"abstract size {abstract.size} != {len(elements)} elements"
            )
        pairs, masks, doms, _ = _pair_masks(graphs)
        if broken := list(_broken_products(abstract, masks, doms)):
            if missing := [p for p in broken if p[3] not in masks]:
                op, a, b, product = min(missing)  # minus first, then row-major
                literal = ", ".join(f"{x}->{y}" for x, y in (pairs[k] for k in mask_iter(product)))
                raise NotClosedError(
                    f"elements are not closed: {op}({a}, {b}) = {{{literal}}} is not an element"
                )
            raise DictionaryError("abstract tables disagree with pointwise evaluation")
        return tuple.__new__(cls, (base, elements, abstract))


def close_generators(
    base: Iterable[int], generators: Sequence[PartialFunction]
) -> ConcreteAlgebra:
    """Close a nonempty generator list under the two operations.

    The resulting element numbering is deterministic: generators first,
    then products in breadth-first waves, ties by lexicographic graph.
    """
    base_f = frozenset(base)
    if not generators:
        raise AlgebraError(
            "at least one generator is required: the closure of nothing is empty"
        )
    for g in generators:
        if g.base != base_f:
            raise BaseMismatchError(
                f"generator base {_base_text(g.base)} differs from {_base_text(base_f)}"
            )
    # The closure's masks give the tables; ConcreteAlgebra checks each product.
    pairs, masks, doms = _close_masks([g.graph for g in generators])
    abstract = FiniteAlgebra.from_tables(*_tables_of(masks, doms))
    elements = tuple(PartialFunction(base_f, g) for g in _graphs_of(pairs, masks))
    return ConcreteAlgebra(base_f, elements, abstract)


# ---------------------------------------------------------------------------
# Boolean algebras as identity-function algebras
# ---------------------------------------------------------------------------


def boolean_as_diffrest(universe: int) -> ConcreteAlgebra:
    """The powerset of ``universe`` points as an algebra of identity
    functions.

    Each subset S of the points 1 to ``universe`` becomes the identity
    function on S; complement within a set and intersection then
    realize the two operations.  The resulting tables are checked
    against all five laws.
    """
    if type(universe) is not int:
        raise TableError(f"universe size {universe!r} is not an integer")
    if universe < 0:
        raise TableError("universe size must be nonnegative")
    if universe > SIZE_CAP.bit_length() - 1:
        # Refuse before building the powerset; 2**universe is only
        # spelled out while it is short.
        size = 2**universe if universe <= 256 else f"2**{universe}"
        raise SizeCapError(f"size {size} exceeds the cap of {SIZE_CAP} elements")
    base = frozenset(range(1, universe + 1))
    subsets = (c for k in range(universe + 1) for c in itertools.combinations(base, k))
    graphs = sorted((frozenset((x, x) for x in c) for c in subsets), key=sorted)
    _, masks, doms, _ = _pair_masks(graphs)
    abstract = FiniteAlgebra.from_tables(*_tables_of(masks, doms))
    report = check_axioms(abstract)
    if not report.passed:
        raise InconsistencyError(
            f"identity-function algebra violates {report.failures()[0].law}"
        )
    return ConcreteAlgebra(base, tuple(PartialFunction(base, g) for g in graphs), abstract)


# ---------------------------------------------------------------------------
# Random generators for test corpora
# ---------------------------------------------------------------------------


def random_generators(
    rng: random.Random, base: Iterable[int], count: int
) -> list[PartialFunction]:
    """Sample generator functions: each point maps with probability 1/2
    to a uniformly random image point."""
    points = sorted(frozenset(base))
    gens = []
    for _ in range(count):
        graph = [(x, rng.choice(points)) for x in points if rng.random() < 0.5]
        gens.append(PartialFunction(points, graph))
    return gens
