"""Text formats: algebra files, concrete dictionaries, and literals.

An algebra file holds ``size``, a ``minus`` block of n rows, a
``restrict`` block of n rows, and optionally ``element_names``.  A
concrete algebra appends a ``base`` declaration and a ``dictionary``
section mapping element ids to partial-function literals like
``{1->1, 2->2}``.  Several algebras may be concatenated in one file;
``#`` starts a comment.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .algebra import AlgebraError, FiniteAlgebra
from .pfun import ConcreteAlgebra, FunctionalityError, PartialFunction, format_pf_literal


# The most points a ``base lo..hi`` range may name.  The range is built
# point by point, so a file of a few bytes could otherwise fill memory;
# larger bases are written as point lists.
BASE_RANGE_CAP = 1 << 16


class ParseError(AlgebraError):
    def __init__(self, message: str, line: int, col: int = 1):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class _Line(NamedTuple):
    number: int
    raw: str
    tokens: list[str]

    @property
    def cols(self) -> list[int]:
        """The column of each token, counted from 1; read only for errors."""
        return [m.start() + 1 for m in re.finditer(r"\S+", self.raw.split("#", 1)[0])]


def _lines(text: str) -> list[_Line]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        # str.split() and \S+ agree on what whitespace is.
        if tokens := raw.split("#", 1)[0].split():
            out.append(_Line(number, raw, tokens))
    return out


def _int_at(line: _Line, idx: int, what: str) -> int:
    try:
        return int(line.tokens[idx])
    except (IndexError, ValueError):
        col = line.cols[idx] if idx < len(line.tokens) else line.cols[-1] + len(line.tokens[-1])
        raise ParseError(f"expected {what}", line.number, col) from None


def _end_at(line: _Line, idx: int, what: str) -> None:
    """Refuse a token after the first ``idx`` tokens of a keyword line."""
    if len(line.tokens) > idx:
        raise ParseError(
            f"unexpected {line.tokens[idx]!r} after {what}", line.number, line.cols[idx]
        )


def _parse_rows(lines: list[_Line], at: int, n: int, label: str) -> tuple[list[list[int]], int]:
    rows = []
    for _ in range(n):
        if at >= len(lines):
            last = lines[-1].number if lines else 1
            raise ParseError(f"{label} block is missing a row", last + 1)
        line = lines[at]
        if len(line.tokens) != n:
            raise ParseError(
                f"{label} row has {len(line.tokens)} entries, expected {n}",
                line.number,
                line.cols[0],
            )
        try:
            rows.append(list(map(int, line.tokens)))
        except ValueError:
            # Name the first entry that is not an integer.
            rows.append([_int_at(line, i, f"an integer in the {label} row") for i in range(n)])
        at += 1
    return rows, at


_PAIR_RE = re.compile(r"^(-?\d+)->(-?\d+)$")


def parse_pf_literal(text: str, base: frozenset[int], line: int, col: int = 1) -> PartialFunction:
    """Parse a literal like ``{1->1, 2->2}`` over a known base."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError(f"malformed function literal {text!r}", line, col)
    inner = body[1:-1].strip()
    pairs = []
    if inner:
        for chunk in inner.split(","):
            chunk = chunk.strip()
            match = _PAIR_RE.match(chunk)
            if not match:
                raise ParseError(f"malformed pair {chunk!r} in literal", line, col)
            x, y = int(match.group(1)), int(match.group(2))
            if x not in base or y not in base:
                raise ParseError(f"pair {chunk!r} is outside the base", line, col)
            pairs.append((x, y))
    try:
        return PartialFunction(base, pairs)
    except FunctionalityError as err:
        raise ParseError(str(err), line, col) from None


def _parse_base(line: _Line) -> frozenset[int]:
    if len(line.tokens) < 2:
        raise ParseError("base declaration needs points", line.number, line.cols[0])
    if len(line.tokens) == 2 and ".." in line.tokens[1]:
        lo_txt, _, hi_txt = line.tokens[1].partition("..")
        try:
            lo, hi = int(lo_txt), int(hi_txt)
        except ValueError:
            raise ParseError(
                f"malformed base range {line.tokens[1]!r}", line.number, line.cols[1]
            ) from None
        if hi - lo >= BASE_RANGE_CAP:
            raise ParseError(
                f"base range {line.tokens[1]!r} has more than {BASE_RANGE_CAP} points",
                line.number,
                line.cols[1],
            )
        return frozenset(range(lo, hi + 1))
    points = [_int_at(line, i, "a base point") for i in range(1, len(line.tokens))]
    return frozenset(points)


def parse_algebras(text: str) -> list[FiniteAlgebra | ConcreteAlgebra]:
    """Parse a file of one or more algebra blocks."""
    lines = _lines(text)
    if not lines:
        raise ParseError("empty input", 1)
    docs: list[FiniteAlgebra | ConcreteAlgebra] = []
    at = 0
    while at < len(lines):
        line = lines[at]
        if line.tokens[0] != "size":
            raise ParseError("expected 'size <n>'", line.number, line.cols[0])
        n = _int_at(line, 1, "the element count")
        if n < 1:
            raise ParseError("size must be at least 1", line.number, line.cols[1])
        _end_at(line, 2, "'size <n>'")
        at += 1

        def expect_keyword(word: str) -> None:
            nonlocal at
            if at >= len(lines) or lines[at].tokens[0] != word:
                number = lines[at].number if at < len(lines) else lines[-1].number + 1
                raise ParseError(f"expected '{word}'", number)
            _end_at(lines[at], 1, f"'{word}'")
            at += 1

        expect_keyword("minus")
        minus, at = _parse_rows(lines, at, n, "minus")
        expect_keyword("restrict")
        restrict, at = _parse_rows(lines, at, n, "restrict")

        names = None
        if at < len(lines) and lines[at].tokens[0] == "element_names":
            line = lines[at]
            if len(line.tokens) != n + 1:
                raise ParseError(
                    f"element_names lists {len(line.tokens) - 1} names, expected {n}",
                    line.number,
                    line.cols[0],
                )
            names = line.tokens[1:]
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ParseError(
                        f"repeated element name {name!r}", line.number, line.cols[i + 1]
                    )
            at += 1

        alg = FiniteAlgebra.from_tables(minus, restrict, names)

        if at < len(lines) and lines[at].tokens[0] == "base":
            base = _parse_base(lines[at])
            at += 1
            expect_keyword("dictionary")
            elements: list[PartialFunction | None] = [None] * n
            for _ in range(n):
                if at >= len(lines):
                    raise ParseError("dictionary is missing an entry", lines[-1].number + 1)
                line = lines[at]
                idx = _int_at(line, 0, "an element id")
                if not 0 <= idx < n or elements[idx] is not None:
                    raise ParseError(f"bad dictionary id {idx}", line.number, line.cols[0])
                literal_start = line.raw.index(line.tokens[0]) + len(line.tokens[0])
                literal = line.raw.split("#", 1)[0][literal_start:]
                col = literal_start + 1 + len(literal) - len(literal.lstrip())
                elements[idx] = parse_pf_literal(literal, base, line.number, col)
                at += 1
            docs.append(ConcreteAlgebra(base, tuple(elements), alg))
        else:
            docs.append(alg)
    return docs


def load_path(path: str) -> list[FiniteAlgebra | ConcreteAlgebra]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_algebras(handle.read())


def abstract_of(doc: FiniteAlgebra | ConcreteAlgebra) -> FiniteAlgebra:
    return doc.abstract if isinstance(doc, ConcreteAlgebra) else doc


def serialize_algebra(alg: FiniteAlgebra) -> str:
    out = [f"size {alg.size}", "minus"]
    out += [" ".join(str(v) for v in row) for row in alg.minus]
    out.append("restrict")
    out += [" ".join(str(v) for v in row) for row in alg.restrict]
    if alg.names is not None:
        out.append("element_names " + " ".join(alg.names))
    return "\n".join(out) + "\n"


def serialize_concrete(conc: ConcreteAlgebra) -> str:
    points = sorted(conc.base)
    if points and len(points) <= BASE_RANGE_CAP and points[-1] - points[0] == len(points) - 1:
        base_line = f"base {points[0]}..{points[-1]}"
    elif not points:
        base_line = "base 1..0"
    else:
        base_line = "base " + " ".join(str(p) for p in points)
    out = serialize_algebra(conc.abstract)
    out += base_line + "\ndictionary\n"
    for i, f in enumerate(conc.elements):
        out += f"{i} {format_pf_literal(f)}\n"
    return out
