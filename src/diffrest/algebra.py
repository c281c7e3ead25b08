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
``x <= y``.  At import every law is compiled into a row scan: both
sides are computed as whole rows over one row variable, chosen so that
no operation needs two rows where possible, and the other variables are
fixed in lexicographic order.  Rows are byte strings, so reading one
through a table row or column is a single ``bytes.translate``, and
comparing two is a ``memcmp``.  Only a row where the sides differ is
walked element by element, and failures are sorted where the loops
meet them out of order, so the witness is the lexicographically first
counterexample among the assignments that satisfy the antecedents.

A downset is certified Boolean in O(k^2) by its atom map (the Stone
representation); the O(k^3) battery of Boolean laws runs only when the
certificate fails, to name the first broken law.

Element subsets are handled as machine-word bitmasks, which is why the
library caps algebra size at ``SIZE_CAP`` (64).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property, wraps
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


def _check_square(n: int, **tables: Table) -> None:
    """Reject tables that are not n-by-n or hold entries outside 0..n-1."""
    for label, table in tables.items():
        if len(table) != n:
            raise TableError(f"{label} table has {len(table)} rows, expected {n}")
        for i, row in enumerate(table):
            if len(row) != n:
                raise TableError(f"{label} row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
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


@dataclass(frozen=True)
class FiniteAlgebra:
    """Immutable finite algebra of the two-operation signature.

    ``zero`` is the common value of ``a - a``; construction rejects
    tables where that value depends on ``a``.
    """

    size: int
    minus: Table
    restrict: Table
    zero: int
    names: tuple[str, ...] | None = None

    @classmethod
    def from_tables(
        cls,
        minus: Sequence[Sequence[int]],
        restrict: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
    ) -> "FiniteAlgebra":
        minus_t = _freeze_table(minus)
        restrict_t = _freeze_table(restrict)
        n = len(minus_t)
        if n == 0:
            raise TableError("algebras are nonempty: need at least one element")
        if n > SIZE_CAP:
            raise SizeCapError(f"size {n} exceeds the cap of {SIZE_CAP} elements")
        _check_square(n, minus=minus_t, restrict=restrict_t)
        zero = minus_t[0][0]
        for a in range(n):
            if minus_t[a][a] != zero:
                raise TableError(
                    f"bottom is not well defined: minus[{a}][{a}] = {minus_t[a][a]} "
                    f"but minus[0][0] = {zero}"
                )
        names_t: tuple[str, ...] | None = None
        if names is not None:
            names_t = tuple(str(s) for s in names)
            if len(names_t) != n:
                raise TableError(f"got {len(names_t)} element names, expected {n}")
        return cls(n, minus_t, restrict_t, zero, names_t)

    def with_names(self, names: Sequence[str]) -> "FiniteAlgebra":
        return FiniteAlgebra.from_tables(self.minus, self.restrict, names)

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
    def meet_table(self) -> Table:
        """meet_table[a][b] = meet(a, b)."""
        return tuple(tuple(row[: self.size]) for row in self.tables.rows["meet"])

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """down_masks[a] = bitmask of all b with b <= a."""
        return tuple(
            mask_of(b for b in range(self.size) if self.leq(b, a))
            for a in range(self.size)
        )

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """up_masks[a] = bitmask of all b with a <= b."""
        return tuple(map(mask_of, self.tables.up_lists))

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
    result on that value, so it lives exactly as long as the algebra."""

    @wraps(fn)
    def cached(alg: FiniteAlgebra, *args):
        key = (fn, *args)
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


class LawTables:
    """What law scans read: each operation's rows and columns (meet
    derived from minus), and the element order as up-sets.

    A row or column is a ``bytes`` string padded to 256 bytes, so it is
    also the translation table that gathers it: ``ids.translate(row)``
    is ``bytes(row[i] for i in ids)`` in one C call.  Element ids are
    below ``SIZE_CAP``, so they fit in a byte; the padding is never
    read."""

    def __init__(self, minus: Table, restrict: Table | None = None):
        n = len(minus)
        pad = bytes(256 - n)
        self.zero, self.everything = minus[0][0], bytes(range(n))
        self.rows = {"minus": [bytes(row) + pad for row in minus]}
        # meet(a, b) = a - (a - b): row a of minus read through itself.
        self.rows["meet"] = [row.translate(row) for row in self.rows["minus"]]
        square = {"minus": minus, "meet": [row[:n] for row in self.rows["meet"]]}
        if restrict is not None:
            self.rows["restrict"] = [bytes(row) + pad for row in restrict]
            square["restrict"] = restrict
        self.cols = {op: [bytes(col) + pad for col in zip(*t)] for op, t in square.items()}
        self._lists: dict[str, list[list[int]]] = {}

    def lists(self, op: str) -> list[list[int]]:
        """The rows of ``op`` as lists, built on first use, for the
        pairwise gather ``op[x[i]][y[i]]``: through ``map``, indexing a
        list is about twice as fast as indexing bytes."""
        if op not in self._lists:
            n = len(self.everything)
            self._lists[op] = [list(row[:n]) for row in self.rows[op]]
        return self._lists[op]

    @cached_property
    def up_lists(self) -> tuple[bytes, ...]:
        """up_lists[a] = the b with a <= b, ascending."""
        ids, meet = self.everything, self.rows["meet"]
        return tuple(bytes([b for b, m in zip(ids, meet[a]) if m == a]) for a in ids)


def _shared(term: Term) -> tuple[set[str], set[str]]:
    """The variables ``term`` reads, and those that some operation in it
    reads through both operands."""
    if isinstance(term, str):
        return {term} - {"0"}, set()
    (x, x_shared), (y, y_shared) = _shared(term[1]), _shared(term[2])
    return x | y, x_shared | y_shared | x & y


def _row_variable(law: Law) -> str:
    """The variable a scan computes whole rows over: the latest one that
    no operation reads through both operands (``x <= y`` being read as
    ``x & y == x``) and that bounds no antecedent's up-set, else the
    last."""
    sides = (law.lhs, law.rhs) if law.relation == "=" else (("meet", law.lhs, law.rhs),)
    barred = {x for x, _ in law.antecedents}.union(*(_shared(side)[1] for side in sides))
    free = [v for v in law.varnames if v not in barred]
    return free[-1] if free else law.varnames[-1]


def _compile(law: Law) -> Callable[[LawTables], Iterator[tuple[int, ...]]]:
    """Compile ``law`` into a scan that yields every assignment breaking
    it, in lexicographic order.

    The scan is Python source with one loop per variable but the row
    variable (``_row_variable``), in ``varnames`` order; an antecedent
    ``x <= y`` makes y run over the up-set of x.  Inside, each side is a
    whole row of values over the row variable, a ``bytes`` string.  A
    row read through a table row (``op[x]``) or column (``op_cols[x]``)
    is one ``translate``; an operation on two rows is the pairwise
    gather ``op[x[i]][y[i]]`` over list rows, which the choice of row
    variable avoids where it can.  A row that does not depend on the
    innermost loop variable is computed in the outer loop that fixes
    what it reads.  A row is walked element by element only where the
    two sides differ.  A fixed left side x of "<=" is tested by deleting
    up(x) from the right side's row.  When the row variable is not the
    last, the failures found in the loops after it are sorted before
    they are yielded, at the end of the loop over the next variable."""
    name = {v: f"v{i}" for i, v in enumerate(law.varnames)} | {"0": "zero"}
    row_var = _row_variable(law)
    loops = [v for v in law.varnames if v != row_var]
    depth = {name[v]: i for i, v in enumerate(loops, 1)} | {"zero": 0}
    above = {y: name[x] for x, y in law.antecedents}
    domain = {v: f"up_lists[{above[v]}]" if v in above else "everything" for v in law.varnames}
    inner, at_dom = len(loops), depth[above[row_var]] if row_var in above else 0
    # block[d] runs at loop depth d, before the loops below it.
    block: list[list[str]] = [[] for _ in range(inner + 1)]
    block[at_dom].append(f"dom = {domain[row_var]}")
    named: dict[str, str] = {}
    # Failures come out in order only if the row variable is the last.
    at_sort = law.varnames.index(row_var)
    witness = "(" + "".join(name[v] + ", " for v in law.varnames) + ")"
    fail = f"yield {witness}" if at_sort == inner else f"found.append({witness})"
    if at_sort < inner:
        block[at_sort].append("found = []")

    def bind(source: str, at: int) -> str:
        """``source``, named in the block of depth ``at`` unless innermost."""
        if at == inner:
            return source
        if source not in named:
            named[source] = f"h{len(named)}"
            block[at].append(f"{named[source]} = {source}")
        return named[source]

    def code(term: Term) -> tuple[str, int, bool]:
        """Source for ``term``, the depth where its value is known, and
        whether it is a row over the row variable."""
        if isinstance(term, str):
            if term == row_var:
                return "dom", at_dom, True
            return name[term], depth[name[term]], False
        op, (x, x_at, x_row), (y, y_at, y_row) = term[0], code(term[1]), code(term[2])
        at = max(x_at, y_at)
        if not (x_row or y_row):
            return f"{op}[{x}][{y}]", at, False
        if x_row and y_row:
            rows = f"map({op}_lists.__getitem__, {x})"
            rows = rows if x_at == inner else bind(f"list({rows})", x_at)
            return bind(f"bytes(map(list.__getitem__, {rows}, {y}))", at), at, True
        line, values = (f"{op}[{x}]", y) if y_row else (f"{op}_cols[{y}]", x)
        return bind(f"{values}.translate({line})", at), at, True

    def row(term: Term) -> str:
        source, at, is_row = code(term)
        return source if is_row else bind(f"bytes(({source},)) * len(dom)", max(at, at_dom))

    left, _, left_row = code(law.lhs)
    if law.relation == "<=" and not left_row:
        block[inner] += [
            f"q, low = {row(law.rhs)}, {left}",
            "if q.translate(None, up_lists[low]):",
            f"    for {name[row_var]}, y in zip(dom, q):",
            f"        if y not in up_lists[low]: {fail}",
        ]
    else:
        # x <= y holds where x & y == x.
        right = law.rhs if law.relation == "=" else ("meet", law.lhs, law.rhs)
        block[inner] += [
            f"p, q = {row(law.lhs)}, {row(right)}",
            "if p != q:",
            f"    for {name[row_var]}, x, y in zip(dom, p, q):",
            f"        if x != y: {fail}",
        ]
    lines = []
    for d, lines_at_d in enumerate(block):
        if d:
            lines.append("    " * d + f"for {name[loops[d - 1]]} in {domain[loops[d - 1]]}:")
        lines += ["    " * (d + 1) + line for line in lines_at_d]
    if at_sort < inner:
        lines.append("    " * (at_sort + 1) + "yield from sorted(found)")
    # The scan binds only the tables its loops read.
    local = {"zero": "t.zero", "everything": "t.everything", "up_lists": "t.up_lists"}
    for op in _OPS.values():
        local |= {op: f"t.rows[{op!r}]", f"{op}_cols": f"t.cols[{op!r}]"}
        local |= {f"{op}_lists": f"t.lists({op!r})"}
    words = set(re.findall(r"\w+", "\n".join(lines)))
    lines[:0] = [f"    {k} = {v}" for k, v in local.items() if k in words]
    namespace: dict = {}
    exec(compile("def scan(t):\n" + "\n".join(lines), f"<law {law.name}>", "exec"), namespace)
    return namespace["scan"]


_SCANS = {law: _compile(law) for law in LAW_TABLE.values()}


def law_failures(law: Law, t: LawTables) -> Iterator[tuple[int, ...]]:
    """Every assignment that breaks ``law``, in lexicographic order."""
    return (_SCANS.get(law) or _compile(law))(t)


@dataclass(frozen=True)
class LawVerdict:
    law: str
    passed: bool
    witness: tuple[int, ...] | None

    def render(self, alg: FiniteAlgebra | None = None) -> str:
        if self.passed:
            return f"PASS {self.law}"
        law = LAW_TABLE[self.law]
        parts = []
        for var, value in zip(law.varnames, self.witness):
            name = alg.element_name(value) if alg is not None else str(value)
            parts.append(f"{var}={name}")
        return f"FAIL {self.law} witness {' '.join(parts)}"


@dataclass(frozen=True)
class AxiomReport:
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


def _scan_laws(t: LawTables, laws: Sequence[Law]) -> AxiomReport:
    verdicts = []
    for law in laws:
        witness = next(law_failures(law, t), None)
        verdicts.append(LawVerdict(law.name, witness is None, witness))
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


def check_subtraction_axioms(minus: Sequence[Sequence[int]]) -> AxiomReport:
    """Evaluate the three complement-only laws on a bare minus table."""
    minus_t = _freeze_table(minus)
    n = len(minus_t)
    if n == 0:
        raise TableError("a minus table needs at least one element")
    _check_square(n, minus=minus_t)
    return _scan_laws(LawTables(minus_t), SUBTRACTION_LAWS)


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


def derived_relations(alg: FiniteAlgebra) -> DerivedRelations:
    """Compute the element order, the domain preorder, and its equivalence.

    The returned relations are checked to form a preorder containing the
    element order, with bottom behaving as expected, and to satisfy
    "below and domain-above implies equal".  Each check names its
    lexicographically first witness.
    """
    n, zero, leq = alg.size, alg.zero, alg.up_masks
    # a is domain-below b where restrict[b][a] == a: column a of restrict.
    domleq = tuple(
        mask_of(b for b, v in enumerate(col) if v == a) for a, col in enumerate(zip(*alg.restrict))
    )
    # under[a]: the b domain-below a, from row a.
    under = tuple(mask_of(b for b, v in enumerate(row) if v == b) for row in alg.restrict)
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


# ---------------------------------------------------------------------------
# Domain quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainQuotient:
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

    @property
    def zero_class(self) -> int:
        return self.class_of[self.parent.zero]


@per_algebra
def domain_quotient(alg: FiniteAlgebra) -> DomainQuotient:
    """Partition elements by domain equality and build the class tables.

    Verifies that the class meet is induced by restriction, that the
    class complement is induced by ``a - (b |> a)``, that the quotient
    satisfies the complement-only laws, and that inside every downset the
    element order and the domain preorder agree.
    """
    n = alg.size
    rels = derived_relations(alg)
    class_of_list: list[int] = [-1] * n
    reps: list[int] = []
    for a in range(n):
        if class_of_list[a] != -1:
            continue
        cid = len(reps)
        reps.append(a)
        for b in mask_iter(rels.domeq[a]):
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

    # Well-definedness: the tables must not depend on the representatives.
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


@dataclass(frozen=True)
class BooleanDownset:
    """The downset of an element, as a Boolean algebra.

    ``members`` lists the elements below ``top`` in increasing id order.
    Construction certifies the Boolean laws (``_boolean_law_failure``).
    """

    parent: FiniteAlgebra
    top: int
    members: tuple[int, ...]

    def complement_of(self, b: int) -> int:
        if b < 0 or not self.parent.down_masks[self.top] >> b & 1:
            raise InconsistencyError(f"element {b} is not in the downset of element {self.top}")
        return self.parent.minus[self.top][b]

    def join(self, b: int, c: int) -> int:
        alg, comp = self.parent, self.complement_of
        return alg.minus[self.top][alg.meet(comp(b), comp(c))]

    def atoms(self) -> tuple[int, ...]:
        down, zero = self.parent.down_masks, self.parent.zero
        return tuple(
            b for b in self.members if b != zero and down[b] & down[self.top] == 1 << b | 1 << zero
        )

    def ultrafilters(self) -> tuple[int, ...]:
        """Maximal proper filters of the downset, one mask per atom."""
        alg = self.parent
        return tuple(alg.up_masks[x] & alg.down_masks[self.top] for x in self.atoms())


def _boolean_certificate(
    meet: Table, comp: Sequence[int], top: int, bottom: int, members: Sequence[int]
) -> bool:
    """Whether the atom map certifies ``members`` Boolean, in O(k^2).

    phi(b) is the mask of the atoms below b, an atom being a member other
    than ``bottom`` with nothing but itself and ``bottom`` below it (c <= b
    iff ``meet[c][b] == c``).  phi must be injective, send ``bottom`` and
    ``top`` to 0 and full, and send ``comp`` and ``meet``, which must stay
    in ``members``, to complement and intersection.  Then phi embeds
    ``members`` in the powerset of the atoms, the De Morgan join going to
    union, so every closure and identity of the battery in
    ``_boolean_law_failure`` holds.  Conversely, if the battery passes,
    phi is the Stone isomorphism of a finite Boolean algebra.
    """
    down = {b: mask_of(c for c in members if meet[c][b] == c) for b in members}
    atoms = [b for b in members if b != bottom and down[b] == 1 << b | 1 << bottom]
    phi = {b: mask_of(i for i, x in enumerate(atoms) if down[b] >> x & 1) for b in members}
    full = (1 << len(atoms)) - 1
    if len(set(phi.values())) != len(members) or phi.get(bottom) != 0 or phi.get(top) != full:
        return False
    # phi.get gives None outside ``members``, which fails every test.
    return all(
        phi.get(comp[b]) == full & ~pb
        and all(phi.get(meet[b][c]) == pb & pc for c, pc in phi.items())
        for b, pb in phi.items()
    )


def _boolean_law_failure(
    meet: Table, comp: Sequence[int], top: int, bottom: int, members: Sequence[int]
) -> tuple[str, tuple[int, ...]] | None:
    """The first Boolean law, with its witness, that ``members`` (the
    downset of ``top``) breaks under a full ``meet`` table and the
    complements ``comp[b]``, joins being their De Morgan duals; None if
    the downset is a Boolean algebra.  The battery runs only when
    ``_boolean_certificate`` fails, to name the law."""
    if _boolean_certificate(meet, comp, top, bottom, members):
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
    if not 0 <= a < alg.size:
        raise TableError(f"no element {a}")
    members = tuple(mask_iter(alg.down_masks[a]))
    failure = _boolean_law_failure(alg.meet_table, alg.minus[a], a, alg.zero, members)
    if failure is not None:
        law, witness = failure
        raise BooleanLawError(
            f"downset of {alg.element_name(a)} violates Boolean law {law} "
            f"at {tuple(alg.element_name(w) for w in witness)}", a, law, witness
        )
    return BooleanDownset(alg, a, members)
