"""Finite algebras of relative complement and domain restriction.

An algebra is given by two n-by-n operation tables over element ids
0..n-1: ``minus`` interprets relative complement and ``restrict``
interprets domain restriction (first argument supplies the domain, the
second the values).  Everything derived from the tables lives here: the
meet semilattice, the element order, the domain preorder and its
quotient, Boolean downsets, and exhaustive checkers for the defining
laws with deterministic first-counterexample witnesses.

Each law is written once, as a pair of terms over minus, restrict, meet
and 0, related by ``=`` or ``<=`` and optionally guarded by antecedents
``x <= y``.  ``_read`` is the one reading of a law that both code
generators compile: the row scans here, compiled at import
(``_compile``), whose first failure is the lexicographically first
counterexample, and the model enumerator's cell checks in ``oracle``.

A downset is certified Boolean in O(k^2) by its atom map (the Stone
representation); the O(k^3) battery of Boolean laws runs only when the
certificate fails, to name the first broken law.

Element subsets are handled as machine-word bitmasks, which is why the
library caps algebra size at ``SIZE_CAP`` (64).
"""

from __future__ import annotations

import ast
import re
from functools import cached_property, wraps
from itertools import combinations, compress, product
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

SIZE_CAP = 64

Table = tuple[tuple[int, ...], ...]


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class TableError(AlgebraError):
    """An operation table is malformed (shape, range, or ill-defined bottom)."""


class SizeCapError(AlgebraError):
    """An algebra or closure exceeds the bitmask size cap."""


class InconsistencyError(AlgebraError):
    """A derived-structure check failed; the input violates the laws."""


class BooleanLawError(InconsistencyError):
    """The downset of ``top`` breaks ``law``, first at the ids ``witness``."""

    def __init__(self, message: str, top: int, law: str, witness: tuple[int, ...]):
        super().__init__(message)
        self.top, self.law, self.witness = top, law, witness


class AxiomFailure(AlgebraError):
    """An operation requiring a law-abiding algebra was given one that is not."""

    def __init__(self, report: "AxiomReport"):
        self.report = report
        failed = ", ".join(v.law for v in report.failures())
        super().__init__(f"axioms do not hold (failing: {failed})")


def _freeze_table(table: Sequence[Sequence[int]]) -> Table:
    return tuple(tuple(row) for row in table)


def _check_size(n: int) -> None:
    if n > SIZE_CAP:
        raise SizeCapError(f"size {n} exceeds the cap of {SIZE_CAP} elements")


def _check_square(n: int, **tables: Table) -> None:
    """Reject tables that are not n-by-n or hold entries outside 0..n-1."""
    for label, table in tables.items():
        if len(table) != n:
            raise TableError(f"{label} table has {len(table)} rows, expected {n}")
        for i, row in enumerate(table):
            if len(row) != n:
                raise TableError(f"{label} row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                if type(v) is not int or not 0 <= v < n:
                    raise TableError(f"{label}[{i}][{j}] = {v!r} is not an element id")


def mask_iter(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << e
    return out


# _EQUALS[v] translates byte v to b"1" and every other byte to b"0";
# _BITS translates those two to bytes 1 and 0.
_EQUALS = [b"0" * v + b"1" + b"0" * (255 - v) for v in range(SIZE_CAP)]
_BITS = bytes.maketrans(b"01", b"\0\1")


def _value_masks(lines: Sequence[bytes], n: int) -> tuple[int, ...]:
    """Per line a, the mask of the b < n with line[b] == a: the line read
    through ``_EQUALS[a]`` and backwards is that mask as a binary numeral."""
    return tuple(int(line[:n].translate(eq)[::-1], 2) for line, eq in zip(lines, _EQUALS))


def _fixed_masks(lines: Sequence[bytes], n: int) -> tuple[int, ...]:
    """Per line, the mask of the b < n with line[b] == b: where the line,
    read as a little-endian number, XOR 0, 1, ..., n - 1 read the same
    way, has a zero byte."""
    ids = int.from_bytes(bytes(range(n)), "little")
    diffs = (int.from_bytes(line[:n], "little") ^ ids for line in lines)
    return tuple(int(d.to_bytes(n, "little").translate(_EQUALS[0])[::-1], 2) for d in diffs)


def _frozen(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable types that
    keep derived structure in an instance ``__dict__``."""
    raise AttributeError(f"cannot assign to field {name!r}")


def _checked_make(cls, fields):
    """``_make``, and so ``_replace``, of the NamedTuple types whose
    constructor checks its input: through that constructor."""
    return cls(*fields)


class _AlgebraFields(NamedTuple):
    size: int
    minus: Table
    restrict: Table
    zero: int
    names: tuple[str, ...] | None = None


class FiniteAlgebra(_AlgebraFields):
    """Immutable finite algebra of the two-operation signature.

    ``zero`` is the common value of ``a - a``; construction rejects
    tables where that value depends on ``a``, and a ``size`` or ``zero``
    that disagrees with the tables.  ``_make`` and ``_replace`` run the
    same checks.  Derived structure is computed once and kept in the
    instance ``__dict__``.
    """

    __setattr__ = __delattr__ = _frozen
    _make = classmethod(_checked_make)

    def __new__(cls, size: int, minus: Table, restrict: Table, zero: int, names=None):
        minus_t = _freeze_table(minus)
        restrict_t = _freeze_table(restrict)
        n = len(minus_t)
        if n == 0:
            raise TableError("algebras are nonempty: need at least one element")
        _check_size(n)
        _check_square(n, minus=minus_t, restrict=restrict_t)
        if type(size) is not int or size != n:
            raise TableError(f"size {size!r} disagrees with the {n}-row tables")
        bottom = minus_t[0][0]
        for a in range(n):
            if minus_t[a][a] != bottom:
                raise TableError(
                    f"bottom is not well defined: minus[{a}][{a}] = {minus_t[a][a]} "
                    f"but minus[0][0] = {bottom}"
                )
        if type(zero) is not int or zero != bottom:
            raise TableError(f"zero {zero!r} is not the bottom minus[0][0] = {bottom}")
        names_t: tuple[str, ...] | None = None
        if names is not None:
            names_t = tuple(str(s) for s in names)
            if len(names_t) != n:
                raise TableError(f"got {len(names_t)} element names, expected {n}")
            for i, name in enumerate(names_t):
                # The file format splits on whitespace and cuts comments at '#'.
                if name.split() != [name] or "#" in name:
                    raise TableError(
                        f"element name {name!r} is empty or holds whitespace or '#'"
                    )
                if name in names_t[:i]:
                    raise TableError(f"repeated element name {name!r}")
        return tuple.__new__(cls, (n, minus_t, restrict_t, zero, names_t))

    @classmethod
    def from_tables(
        cls,
        minus: Sequence[Sequence[int]],
        restrict: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
    ) -> "FiniteAlgebra":
        minus_t = _freeze_table(minus)
        # Where minus has no entry [0][0] the constructor refuses its shape first.
        zero = minus_t[0][0] if minus_t and minus_t[0] else None
        return cls(len(minus_t), minus_t, restrict, zero, names)

    def element_name(self, a: int) -> str:
        return self.names[a] if self.names is not None else str(a)

    # Derived operations and relations.

    def meet(self, a: int, b: int) -> int:
        m = self.minus
        return m[a][m[a][b]]

    def leq(self, a: int, b: int) -> bool:
        return self.meet(a, b) == a

    def domleq(self, a: int, b: int) -> bool:
        """Domain preorder: the domain of ``a`` is contained in that of ``b``."""
        return self.restrict[b][a] == a

    @cached_property
    def tables(self) -> "LawTables":
        """The tables, columns and up-sets that law scans read."""
        return LawTables(self.minus, self.restrict)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """down_masks[a] = bitmask of all b with b <= a: the fixed points
        of column a of meet."""
        return _fixed_masks(self.tables["meet_cols"], self.size)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """up_masks[a] = bitmask of all b with a <= b: where row a of meet
        holds a."""
        return _value_masks(self.tables["meet"], self.size)

    @cached_property
    def all_mask(self) -> int:
        return (1 << self.size) - 1

    def up_closure(self, mask: int) -> int:
        out = 0
        for a in mask_iter(mask):
            out |= self.up_masks[a]
        return out

    def order_atoms(self) -> tuple[int, ...]:
        """Minimal nonzero elements of the element order (no law checks)."""
        out = []
        for a in range(self.size):
            if a == self.zero:
                continue
            if self.down_masks[a] == (1 << a) | (1 << self.zero):
                out.append(a)
        return tuple(out)

    @cached_property
    def _memo(self) -> dict:
        """Results of ``per_algebra`` functions on this value."""
        return {}

    def __repr__(self) -> str:  # keep test failure output readable
        return f"FiniteAlgebra(size={self.size}, zero={self.zero})"


def per_algebra(fn):
    """Compute ``fn(alg, *args)`` once per algebra value and keep the
    result on that value, so it lives exactly as long as the algebra.
    The key holds the arguments' types too, since True == 1 == 1.0."""

    @wraps(fn)
    def cached(alg: FiniteAlgebra, *args):
        key = (fn, *args, *map(type, args))
        if key not in alg._memo:
            alg._memo[key] = fn(alg, *args)
        return alg._memo[key]

    return cached


# ---------------------------------------------------------------------------
# Law checking
# ---------------------------------------------------------------------------


# A term is a variable name, "0", or (op, left, right) with op "minus",
# "restrict" or "meet".
Term = str | tuple

_OPS = {ast.Sub: "minus", ast.RShift: "restrict", ast.BitAnd: "meet"}


class Law(NamedTuple):
    """``lhs relation rhs``, relation "=" or "<=", for every assignment to
    ``varnames`` that satisfies each antecedent ``x <= y``."""

    name: str
    varnames: tuple[str, ...]
    lhs: Term
    relation: str
    rhs: Term
    antecedents: tuple[tuple[str, str], ...] = ()


def _term(node: ast.expr) -> Term:
    if isinstance(node, ast.BinOp):
        return (_OPS[type(node.op)], _term(node.left), _term(node.right))
    return node.id if isinstance(node, ast.Name) else str(node.value)


def parse_law(name: str, varnames: str, text: str) -> Law:
    """Read ``[x <= y, ... =>] term (== | <=) term``.  Terms combine the
    variables, 0 and parentheses with ``-`` (minus), ``|>`` (restrict)
    and ``&`` (meet), which bind in that order."""
    *given, claim = text.replace("|>", ">>").split("=>")
    antecedents = [tuple(p.split("<=")) for p in "".join(given).replace(" ", "").split(",") if p]
    compare = ast.parse(claim.strip(), mode="eval").body
    relation = {ast.Eq: "=", ast.LtE: "<="}[type(compare.ops[0])]
    lhs, rhs = _term(compare.left), _term(compare.comparators[0])
    return Law(name, tuple(varnames), lhs, relation, rhs, tuple(antecedents))


AXIOM_LAWS: tuple[Law, ...] = (
    parse_law("Ax.1", "ab", "a - (b - a) == a"),
    parse_law("Ax.2", "ab", "a & b == b & a"),
    parse_law("Ax.3", "abc", "(a - b) - c == (a - c) - b"),
    parse_law("Ax.4", "abc", "(a |> c) & (b |> c) == (a |> b) |> c"),
    parse_law("Ax.5", "ab", "(a & b) |> a == a & b"),
)

SUBTRACTION_LAWS: tuple[Law, ...] = AXIOM_LAWS[:3]

DERIVED_LAWS: tuple[Law, ...] = (
    parse_law("meet-minus-disjoint", "ab", "b & (a - b) == 0"),
    parse_law("minus-absorbs-meet", "ab", "a - (a & b) == a - b"),
    parse_law("meet-minus-assoc", "abc", "a & (b - c) == (a & b) - c"),
    parse_law("restrict-below", "ab", "b |> a <= a"),
    parse_law("restrict-assoc", "abc", "a |> (b |> c) == (a |> b) |> c"),
    parse_law("restrict-meet-absorb", "ab", "(a |> b) |> (a & b) == a & b"),
    parse_law("restrict-over-meet", "abc", "a |> (b & c) == (a |> b) & c"),
    parse_law("restrict-over-minus", "abc", "(a |> b) - c == a |> (b - c)"),
    parse_law("restrict-monotone", "abcd", "a <= b, c <= d => a |> c <= b |> d"),
)

LAW_TABLE: dict[str, Law] = {law.name: law for law in AXIOM_LAWS + DERIVED_LAWS}


class LawTables(dict):
    """What law scans read, by the names the scans read them under; the
    tables of an operation are built when one of them is first read,
    meet's from minus.

    ``t[op]`` and ``t[op + "_cols"]`` are the rows and columns of an
    operation as ``bytes`` strings padded to 256 bytes, so each is also
    the translation table that gathers it: ``ids.translate(row)`` is
    ``bytes(row[i] for i in ids)`` in one C call.  Element ids are below
    ``SIZE_CAP``, so they fit in a byte; the padding is never read.
    ``t[op + "_flat"]`` is the table as one string, row after row, and
    ``t[op + "_cols_flat"]`` column after column.  ``up_lists`` is the
    element order as up-sets, and ``up_picks`` picks the items at each."""

    def __init__(self, minus: Table, restrict: Table | None = None):
        self.zero, self.everything = minus[0][0], bytes(range(len(minus)))
        self.square = {"minus": minus}
        if restrict is not None:
            self.square["restrict"] = restrict

    def __missing__(self, name: str):
        op, _, kind = name.partition("_")
        if kind == "cols_flat":
            self[name] = b"".join(map(self.everything.translate, self[f"{op}_cols"]))
        elif kind in ("", "cols", "flat"):
            pad = bytes(256 - len(self.everything))
            if op == "meet":
                # meet(a, b) = a - (a - b): row a of minus read through itself.
                minus = self["minus"]
                rows = list(map(bytes.translate, minus, minus))
                lines = list(map(self.everything.translate, rows))
            else:
                lines = list(map(bytes, self.square[op]))
                rows = [line + pad for line in lines]
            self[op], self[f"{op}_cols"] = rows, [bytes(col) + pad for col in zip(*lines)]
            self[f"{op}_flat"] = b"".join(lines)
        if name not in self:
            raise KeyError(name)
        return self[name]

    @cached_property
    def up_lists(self) -> tuple[bytes, ...]:
        """up_lists[a] = the b with a <= b, ascending."""
        ids, n = self.everything, len(self.everything)
        return tuple(
            bytes(compress(ids, line[:n].translate(eq).translate(_BITS)))
            for line, eq in zip(self["meet"], _EQUALS)
        )

    @cached_property
    def up_picks(self) -> tuple[Callable[[list], Sequence], ...]:
        """up_picks[a](items) = the items at up_lists[a]; a slice keeps
        the pick of an up-set of one element or none a sequence."""
        return tuple(
            itemgetter(*up) if len(up) > 1
            else itemgetter(slice(up[0], up[0] + 1) if up else slice(0))
            for up in self.up_lists
        )


def _read(law: Law) -> tuple[list[tuple[Term, Term]], dict[str, str]]:
    """``law`` as both code generators compile it: the claim and then the
    antecedents (the guards) as equations, x <= y read as x == x & y, and
    ``above[y] = x`` for each antecedent x <= y.  Raises ``ValueError``,
    naming the law, unless each antecedent bounds a later variable and
    none bounds one twice, so that each bounded variable runs over one
    up-set, inside the loop of x."""
    above = {y: x for x, y in law.antecedents}
    ordered = set(combinations(law.varnames, 2))  # (x, y) with x before y
    if len(above) < len(law.antecedents) or not ordered.issuperset(law.antecedents):
        raise ValueError(f"law {law.name}: each antecedent must bound a later variable, none twice")
    claims = [(law.lhs, law.relation, law.rhs)] + [(x, "<=", y) for x, y in law.antecedents]
    return [(x, y) if r == "=" else (x, ("meet", x, y)) for x, r, y in claims], above


def _subterms(*terms: Term) -> Iterator[Term]:
    """Every subterm, operands (left first) before the terms they build."""
    for term in terms:
        yield from _subterms(*term[1:]) if isinstance(term, tuple) else ()
        yield term


def _fold(known: dict[Term, object], terms: Sequence[Term], combine: Callable) -> list[Term]:
    """Enter each subterm of ``terms`` that ``known`` lacks as ``combine`` of
    its operands' entries (with loop depths and ``max``, the depth where it
    is known); return those subterms, each once, in evaluation order."""
    new = [u for u in dict.fromkeys(_subterms(*terms)) if u not in known]
    for u in new:
        known[u] = combine(known[u[1]], known[u[2]])
    return new


def _define(source: str, filename: str) -> Callable:
    """The function that ``source``, one generated ``def``, defines."""
    namespace: dict = {"product": product}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[source[4:source.index("(")]]


def _row_cost(reads: dict, sides: tuple[Term, Term], rows: tuple[str, ...]) -> tuple | None:
    """What a scan of ``sides`` with rows over ``rows`` (outer first) pays
    beyond one C call per row: the pairwise gathers over whole rows,
    whether it has one row variable, and the steps that make one call per
    outer value.  None if it would need a step that ``_compile`` lacks: an
    operation between rows over different but overlapping row variables,
    or a side over one of two row variables alone.  ``reads`` maps each
    subterm of ``sides`` to the variables it reads."""
    full = set(rows)
    gathers = per_value = 0
    for operands in (u[1:] for u in reads if isinstance(u, tuple)):
        x, y = (reads[v] & full for v in operands)
        if x & y:
            if x != y:
                return None
            gathers += x == full
            per_value += x != full
        elif x and y:
            # One call per outer value, unless the inner operand is the
            # inner variable itself.
            per_value += rows[-1] not in operands
    if any(reads[side] & full not in (set(), full) for side in sides):
        return None
    return gathers, len(rows) == 1, per_value


def _row_variables(law: Law) -> tuple[str, ...]:
    """The variables a scan computes rows over, outer first: of those
    that bound no antecedent's up-set, the pair or the single one that
    costs least (``_row_cost``), later variables first on ties."""
    (sides, *_), above = _read(law)
    reads = {v: {v} for v in law.varnames} | {"0": set()}
    _fold(reads, sides, set.union)
    free = [v for v in law.varnames[::-1] if v not in above.values()]
    best = None
    for rows in [(x, y) for y in free for x in free if x != y] + [(v,) for v in free]:
        cost = _row_cost(reads, sides, rows)
        if cost and (best is None or cost < best[0]):
            best = cost, rows
            if cost[0] == cost[2] == 0:
                break  # nothing later costs less
    return best[1]


_TABLE_NAMES = {op + kind for op in _OPS.values() for kind in ("", "_cols", "_flat", "_cols_flat")}


def _source(law: Law) -> str:
    """The source of the scan of ``law`` (see ``_compile``)."""
    name = {v: f"v{i}" for i, v in enumerate(law.varnames)} | {"0": "zero"}
    (sides, *_), above = _read(law)
    rows = _row_variables(law)
    first, v = set(), rows[-1]
    while v in above:
        v = above[v]
        first.add(v)
    loops = sorted((v for v in law.varnames if v not in rows), key=lambda v: v not in first)
    level = {"0": 0} | {v: i for i, v in enumerate(loops, 1)}
    level |= {v: level[above[v]] if v in above else 0 for v in rows}
    _fold(level, sides, max)
    domain = {v: "everything" for v in law.varnames}
    domain |= {y: f"up_lists[{name[x]}]" for y, x in above.items()}
    inner = len(loops)
    # block[d] runs at loop depth d, before the loops below it.
    block: list[list[str]] = [[] for _ in range(inner + 1)]
    # A value's kind has bit 1 set if it is a row over the outer row
    # variable and bit 2 if over the inner one; raw[k - 1] is the row of
    # the values of the kth row variable itself.
    dom = {}
    for kind, v in enumerate(rows, 1):
        dom[v] = f"dom{kind}" if v in above else "everything", level[v], kind
        if v in above:
            block[level[v]].append(f"dom{kind} = {domain[v]}")
    raw, dom_at, _ = zip(*dom.values())
    picks = {f"dom{k}": f"up_picks[{name[above[v]]}]" for k, v in enumerate(rows, 1) if v in above}
    at_full = max(dom_at)
    order = loops + list(rows)
    at_sort = next((d for d, (x, y) in enumerate(zip(order, law.varnames)) if x != y), None)
    witness = "(" + "".join(name[v] + ", " for v in law.varnames) + ")"
    fail = f"yield {witness}" if at_sort is None else f"found.append({witness})"
    if at_sort is not None:
        block[at_sort].append("found = []")
    named: dict[str, str] = {}

    def bind(source: str, at: int) -> str:
        """``source``, named once, in the block of depth ``at``."""
        if source not in named:
            named[source] = f"h{len(named)}"
            block[at].append(f"{named[source]} = {source}")
        return named[source]

    def code(term: Term) -> tuple[str, int, int]:
        """Source for ``term``, the depth where its value is known, and its kind."""
        if isinstance(term, str):
            return dom[term] if term in dom else (name[term], level[term], 0)
        op, (x, x_at, xk), (y, _, yk) = term[0], code(term[1]), code(term[2])
        at = level[term]
        if not (xk or yk):
            return f"{op}[{x}][{y}]", at, 0
        if not xk:
            return bind(f"{y}.translate({op}[{x}])", at), at, yk
        if not yk:
            return bind(f"{x}.translate({op}_cols[{y}])", at), at, xk
        if xk | yk == 3 and not xk & yk:
            # The operand over the outer variable picks the lines it reads.
            (outer, other), lines = ((x, y), op) if xk == 1 else ((y, x), f"{op}_cols")
            every = outer == raw[0] == "everything"
            if other != raw[1]:
                picked = lines if every else f"map({lines}.__getitem__, {outer})"
                return bind(f'b"".join(map({other}.translate, {picked}))', at), at, 3
            if every and raw[1] == "everything":
                return f"{lines}_flat", 0, 3
            inner_lines = bind(f"list(map({raw[1]}.translate, {lines}))", dom_at[1])
            if outer in picks:  # an up-set: its itemgetter picks the lines
                return bind(f'b"".join({picks[outer]}({inner_lines}))', at), at, 3
            return bind(f'b"".join(map({inner_lines}.__getitem__, {outer}))', at), at, 3
        # Through map, indexing a list is about twice as fast as bytes.
        lists = bind(f"list(map(list, map(everything.translate, {op})))", 0)
        lists = f"map({lists}.__getitem__, {x})"
        lists = lists if x_at == inner else bind(f"list({lists})", x_at)
        return bind(f"bytes(map(list.__getitem__, {lists}, {y}))", at), at, xk | yk

    def row(term: Term) -> str:
        """``term`` as a row over every row variable."""
        source, at, kind = code(term)
        if kind:
            return source
        sizes = "".join(f" * len({r})" for r in raw)
        return bind(f"bytes(({source},)){sizes}", max(at, at_full))

    left, _, left_kind = code(law.lhs)
    cells = f"product({raw[0]}, {raw[1]})" if len(rows) == 2 else raw[0]
    target = ", ".join(name[v] for v in rows)
    target = f"({target})" if len(rows) == 2 else target
    if law.relation == "<=" and not left_kind:
        block[inner] += [
            f"q, low = {row(law.rhs)}, {left}",
            "if q.translate(None, up_lists[low]):",
            f"    for {target}, y in zip({cells}, q):",
            f"        if y not in up_lists[low]: {fail}",
        ]
    else:
        block[inner] += [
            f"p, q = {row(sides[0])}, {row(sides[1])}",
            "if p != q:",
            f"    for {target}, x, y in zip({cells}, p, q):",
            f"        if x != y: {fail}",
        ]
    lines = []
    for d, lines_at_d in enumerate(block):
        if d:
            lines.append("    " * d + f"for {name[loops[d - 1]]} in {domain[loops[d - 1]]}:")
        lines += ["    " * (d + 1) + line for line in lines_at_d]
    if at_sort is not None:
        lines.append("    " * (at_sort + 1) + "yield from sorted(found)")
    # The scan binds only the tables its loops read.
    words = set(re.findall(r"\w+", "\n".join(lines)))
    fields = ("zero", "everything", "up_lists", "up_picks")
    lines[:0] = [f"    {k} = t.{k}" for k in fields if k in words]
    lines[:0] = [f"    {k} = t[{k!r}]" for k in sorted(words & _TABLE_NAMES)]
    return "def scan(t):\n" + "\n".join(lines)


def _compile(law: Law) -> Callable[[LawTables], Iterator[tuple[int, ...]]]:
    """Compile ``law``, as ``_read`` gives it, into a scan that yields
    every assignment breaking it, in lexicographic order; a law whose
    antecedents ``_read`` refuses raises ``ValueError``.

    The scan is Python source with one loop per variable but the row
    variables (``_row_variables``); a variable bounded by an antecedent
    x <= y runs over the up-set of x, and the loops the inner row's
    up-set hangs from run first.  Each side of the equation is one
    ``bytes`` row of values over the row variables (over two, the rows
    over the inner one, one per value of the outer one, joined).  An
    operation with a fixed operand reads the row through a table row or
    column: one ``translate``.  One between rows over the outer and the
    inner variable joins one line per outer value: the flat table for
    the bare pair, else the inner variable's own lines (picked by one
    ``itemgetter`` where the outer one runs over an up-set) or one
    ``translate`` each.  Two rows over the same variables gather
    pairwise, which the choice of row variables avoids where it can.  A
    row is computed in the outermost loop that fixes what it reads, and
    walked only where the sides differ; a fixed left side x of "<="
    deletes up(x) from the right side's row instead.  Failures met out
    of ``varnames`` order are sorted before they are yielded."""
    return _define(_source(law), f"<law {law.name}>")


_SCANS = {law: _compile(law) for law in LAW_TABLE.values()}


def law_failures(law: Law, t: LawTables) -> Iterator[tuple[int, ...]]:
    """Every assignment that breaks ``law``, in lexicographic order."""
    return (_SCANS.get(law) or _compile(law))(t)


class LawVerdict(NamedTuple):
    law: str
    passed: bool
    witness: tuple[int, ...] | None


class AxiomReport(NamedTuple):
    verdicts: tuple[LawVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failures(self) -> tuple[LawVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.passed)

    def verdict(self, law: str) -> LawVerdict:
        for v in self.verdicts:
            if v.law == law:
                return v
        raise KeyError(law)


# A passing verdict names only its law, so one value serves every algebra.
_PASSED = {name: LawVerdict(name, True, None) for name in LAW_TABLE}


def _scan_laws(t: LawTables, laws: Sequence[Law]) -> AxiomReport:
    verdicts = []
    for law in laws:
        witness = next(law_failures(law, t), None)
        passed = witness is None and _PASSED.get(law.name)
        verdicts.append(passed or LawVerdict(law.name, witness is None, witness))
    return AxiomReport(tuple(verdicts))


@per_algebra
def check_axioms(alg: FiniteAlgebra) -> AxiomReport:
    """Exhaustively evaluate the five defining laws.

    Each law is scanned over all variable assignments in lexicographic
    order; the first counterexample is recorded as the witness.  The
    report is computed once per algebra value.
    """
    return _scan_laws(alg.tables, AXIOM_LAWS)


def check_derived_laws(alg: FiniteAlgebra) -> AxiomReport:
    """Exhaustively evaluate the consequences of the defining laws.

    Intended for algebras that already pass ``check_axioms``; running it
    there is a self-test of table construction.
    """
    return _scan_laws(alg.tables, DERIVED_LAWS)


# ---------------------------------------------------------------------------
# Derived relations
# ---------------------------------------------------------------------------


class DerivedRelations(NamedTuple):
    """Three relations as row masks: bit b of ``leq[a]`` says a <= b, of
    ``domleq[a]`` that the domain of a lies in that of b, and of
    ``domeq[a]`` that the two domains are equal."""

    leq: tuple[int, ...]
    domleq: tuple[int, ...]
    domeq: tuple[int, ...]


@per_algebra
def derived_relations(alg: FiniteAlgebra) -> DerivedRelations:
    """Compute the element order, the domain preorder, and its equivalence.

    The returned relations are checked to form a preorder containing the
    element order, with bottom behaving as expected, and to satisfy
    "below and domain-above implies equal".  Each check names its
    lexicographically first witness.
    """
    n, zero, leq, t = alg.size, alg.zero, alg.up_masks, alg.tables
    # a is domain-below b where restrict[b][a] == a: column a of restrict.
    domleq = _value_masks(t["restrict_cols"], n)
    # under[a]: the b domain-below a, the fixed points of row a.
    under = _fixed_masks(t["restrict"], n)
    domeq = tuple(d & u for d, u in zip(domleq, under))

    for a in range(n):
        if not domleq[a] >> a & 1:
            raise InconsistencyError(f"domain preorder is not reflexive at {a}")
        if not domleq[zero] >> a & 1:
            raise InconsistencyError(f"bottom is not domain-least below {a}")
        if domleq[a] >> zero & 1 and a != zero:
            raise InconsistencyError(f"{a} is domain-below bottom but nonzero")
    for a in range(n):
        for b in mask_iter(domleq[a]):
            if gap := domleq[b] & ~domleq[a]:
                c = next(mask_iter(gap))
                raise InconsistencyError(f"domain preorder is not transitive at ({a}, {b}, {c})")
    for a in range(n):
        # The first b that fails; each pair fails containment before distinctness.
        for b in mask_iter(leq[a] & ~domleq[a] | leq[a] & under[a] & ~(1 << a)):
            if not domleq[a] >> b & 1:
                raise InconsistencyError(
                    f"element order not contained in domain preorder at ({a}, {b})"
                )
            raise InconsistencyError(f"({a}, {b}) are below/domain-above yet distinct")
    return DerivedRelations(leq, domleq, domeq)


@per_algebra
def _domain_classes(alg: FiniteAlgebra) -> tuple[int, ...]:
    """The class of each element under domain equality, the classes
    numbered in the order of their least members: the one numbering that
    ``domain_quotient``, ``enumerate_filters`` and the constructions share."""
    domeq, class_of, count = derived_relations(alg).domeq, [-1] * alg.size, 0
    for a in range(alg.size):
        if class_of[a] == -1:
            for b in mask_iter(domeq[a]):
                class_of[b] = count
            count += 1
    return tuple(class_of)


# ---------------------------------------------------------------------------
# Domain quotient
# ---------------------------------------------------------------------------


class DomainQuotient(NamedTuple):
    """Quotient of an algebra by equality of domains.

    Classes are numbered by their least-index member.  ``meet`` is the
    class semilattice operation and ``qminus`` the induced complement
    structure; both are total tables over class ids.
    """

    parent: FiniteAlgebra
    class_of: tuple[int, ...]
    class_rep: tuple[int, ...]
    meet: Table
    qminus: Table

    @property
    def n_classes(self) -> int:
        return len(self.class_rep)

    def class_members(self, c: int) -> tuple[int, ...]:
        return tuple(a for a in range(self.parent.size) if self.class_of[a] == c)


def _first_difference(p: bytes, q: bytes) -> int | None:
    """The first index where ``p`` and ``q`` differ, or None if they are equal."""
    if p == q:
        return None
    return next(i for i, (x, y) in enumerate(zip(p, q)) if x != y)


@per_algebra
def domain_quotient(alg: FiniteAlgebra) -> DomainQuotient:
    """Partition elements by domain equality and build the class tables.

    Verifies that the class meet is induced by restriction, that the
    class complement is induced by ``a - (b |> a)``, that the quotient
    satisfies the complement-only laws, and that inside every downset the
    element order and the domain preorder agree.
    """
    n, rels, class_of = alg.size, derived_relations(alg), _domain_classes(alg)
    class_rep = tuple(class_of.index(c) for c in range(max(class_of) + 1))
    k = len(class_rep)

    # Class tables as rows of bytes: meet[i][j] is the class of
    # rep_i |> rep_j, qminus[i][j] that of rep_i - (rep_j |> rep_i).
    t, classes, reps_b = alg.tables, bytes(class_of), bytes(class_rep)
    to_class = classes + bytes(256 - n)
    meet_rows = [reps_b.translate(t["restrict"][r]).translate(to_class) for r in reps_b]
    qminus_rows = [
        reps_b.translate(t["restrict_cols"][r]).translate(t["minus"][r]).translate(to_class)
        for r in reps_b
    ]
    meet_t, qminus_t = tuple(map(tuple, meet_rows)), tuple(map(tuple, qminus_rows))

    # Well-definedness: the tables must not depend on the representatives.
    # Row a of each side over all b, joined; the class tables are read
    # at (class of a, class of b).
    def lifted(rows: list[bytes]) -> bytes:
        lines = [row + bytes(256 - k) for row in rows]
        return b"".join(map(classes.translate, map(lines.__getitem__, classes)))

    meets = t["restrict_flat"].translate(to_class)
    cols = map(t.everything.translate, t["restrict_cols"])
    complements = b"".join(map(bytes.translate, cols, t["minus"]))
    bad_meet = _first_difference(meets, lifted(meet_rows))
    bad_complement = _first_difference(complements.translate(to_class), lifted(qminus_rows))
    if bad_meet is not None and (bad_complement is None or bad_meet <= bad_complement):
        a, b = divmod(bad_meet, n)
        raise InconsistencyError(f"class meet not well defined at elements ({a}, {b})")
    if bad_complement is not None:
        a, b = divmod(bad_complement, n)
        raise InconsistencyError(f"class complement not well defined at elements ({a}, {b})")

    quotient_tables = LawTables(qminus_t)
    sub_report = _scan_laws(quotient_tables, SUBTRACTION_LAWS)
    if not sub_report.passed:
        raise InconsistencyError(
            f"quotient violates complement laws: {sub_report.failures()[0].law}"
        )
    bad = _first_difference(quotient_tables["meet_flat"], b"".join(meet_rows))
    if bad is not None:
        i, j = divmod(bad, k)
        raise InconsistencyError(f"quotient meet disagrees with double complement at ({i}, {j})")

    # Inside each downset the element order and the domain preorder agree.
    for a, below in enumerate(alg.down_masks):
        for b in mask_iter(below):
            if split := (rels.domleq[b] ^ rels.leq[b]) & below:
                c = next(mask_iter(split))
                raise InconsistencyError(f"orders disagree inside the downset of {a} at ({b}, {c})")

    return DomainQuotient(alg, class_of, class_rep, meet_t, qminus_t)


# ---------------------------------------------------------------------------
# Boolean downsets
# ---------------------------------------------------------------------------


class BooleanDownset(NamedTuple):
    """The downset of an element, as a Boolean algebra.

    ``members`` lists the elements below ``top`` in increasing id order.
    Construction certifies the Boolean laws (``_boolean_law_failure``).
    """

    parent: FiniteAlgebra
    top: int
    members: tuple[int, ...]


def _boolean_certificate(
    meet: Sequence[Sequence[int]], comp: Sequence[int], top: int, bottom: int,
    members: Sequence[int], downs: Sequence[int],
) -> bool:
    """Whether the atom map certifies ``members`` Boolean, in O(k^2).

    ``downs[i]`` is the mask of the members c <= ``members[i]`` (those
    with ``meet[c][members[i]] == c``).  phi(b) is the mask of the atoms
    below b, ``downs`` cut to the atom mask, an atom being a member
    other than ``bottom`` with nothing but itself and ``bottom`` below
    it.  phi must be injective, send ``bottom`` and ``top`` to 0 and the
    atom mask, and send ``comp`` and ``meet``, which must stay in
    ``members``, to complement within the atom mask and intersection.
    Then phi embeds ``members`` in the powerset of the atoms, the De
    Morgan join going to union, so every closure and identity of the
    battery in ``_boolean_law_failure`` holds.  Conversely, if the
    battery passes, phi is the Stone isomorphism of a finite Boolean
    algebra.
    """
    down = dict(zip(members, downs))
    atoms = mask_of(b for b in members if b != bottom and down[b] == 1 << b | 1 << bottom)
    phi = {b: d & atoms for b, d in down.items()}
    if len(set(phi.values())) != len(members) or phi.get(bottom) != 0 or phi.get(top) != atoms:
        return False
    # phi.get gives None outside ``members``, which fails every test.
    return all(
        phi.get(comp[b]) == atoms & ~pb
        and all(phi.get(meet[b][c]) == pb & pc for c, pc in phi.items())
        for b, pb in phi.items()
    )


def _boolean_law_failure(
    meet: Sequence[Sequence[int]], comp: Sequence[int], top: int, bottom: int,
    members: Sequence[int], downs: Sequence[int],
) -> tuple[str, tuple[int, ...]] | None:
    """The first Boolean law, with its witness, that ``members`` (the
    downset of ``top``, with the down-sets ``downs`` inside it) breaks
    under a full ``meet`` table and the complements ``comp[b]``, joins
    being their De Morgan duals; None if the downset is a Boolean
    algebra.  The battery runs only when ``_boolean_certificate`` fails,
    to name the law."""
    if _boolean_certificate(meet, comp, top, bottom, members, downs):
        return None
    member_set = set(members)

    def join(b: int, c: int) -> int:
        return comp[meet[comp[b]][comp[c]]]

    if bottom not in member_set:
        return "bottom-member", (top,)
    for b in members:
        if comp[b] not in member_set:
            return "complement-closure", (b,)
        for c in members:
            if meet[b][c] not in member_set:
                return "meet-closure", (b, c)
            if join(b, c) not in member_set:
                return "join-closure", (b, c)
    for b in members:
        mb = meet[b]
        if mb[b] != b:
            return "meet-idempotent", (b,)
        if join(b, b) != b:
            return "join-idempotent", (b,)
        if mb[top] != b:
            return "top-identity", (b,)
        if join(b, bottom) != b:
            return "bottom-identity", (b,)
        if mb[comp[b]] != bottom:
            return "complement-meet", (b,)
        if join(b, comp[b]) != top:
            return "complement-join", (b,)
        for c in members:
            if mb[c] != meet[c][b]:
                return "meet-commutative", (b, c)
            if join(b, c) != join(c, b):
                return "join-commutative", (b, c)
            if mb[join(b, c)] != b:
                return "absorption-meet", (b, c)
            if join(b, mb[c]) != b:
                return "absorption-join", (b, c)
            for d in members:
                if meet[mb[c]][d] != mb[meet[c][d]]:
                    return "meet-associative", (b, c, d)
                if join(join(b, c), d) != join(b, join(c, d)):
                    return "join-associative", (b, c, d)
                if mb[join(c, d)] != join(mb[c], mb[d]):
                    return "distributive", (b, c, d)
    return None


@per_algebra
def boolean_downset(alg: FiniteAlgebra, a: int) -> BooleanDownset:
    """Carve out the downset of ``a`` and certify it is a Boolean algebra."""
    if type(a) is not int or not 0 <= a < alg.size:
        raise TableError(f"no element {a!r}")
    below = alg.down_masks[a]
    members = tuple(mask_iter(below))
    downs = [alg.down_masks[b] & below for b in members]
    failure = _boolean_law_failure(alg.tables["meet"], alg.minus[a], a, alg.zero, members, downs)
    if failure is not None:
        law, witness = failure
        raise BooleanLawError(
            f"downset of {alg.element_name(a)} violates Boolean law {law} "
            f"at {tuple(alg.element_name(w) for w in witness)}", a, law, witness
        )
    return BooleanDownset(alg, a, members)
