"""Algebra file parsing, serialization, and literals."""

import pytest

from conftest import MALFORMED_DICTIONARIES

from diffrest import (
    ConcreteAlgebra,
    FiniteAlgebra,
    InconsistencyError,
    ParseError,
    PartialFunction,
    PfunError,
    abstract_of,
    boolean_as_diffrest,
    close_generators,
    parse_algebras,
    parse_pf_literal,
    serialize_algebra,
    serialize_concrete,
)
from diffrest.formats import BASE_RANGE_CAP


def test_algebra_roundtrip(f2):
    alg = f2.abstract
    docs = parse_algebras(serialize_algebra(alg))
    assert len(docs) == 1
    assert docs[0] == alg


def test_concrete_roundtrip(f2):
    docs = parse_algebras(serialize_concrete(f2))
    assert len(docs) == 1
    conc = docs[0]
    assert isinstance(conc, ConcreteAlgebra)
    assert conc.abstract == f2.abstract
    assert [e.graph for e in conc.elements] == [e.graph for e in f2.elements]


def test_concatenated_algebras(f0, f2):
    text = serialize_algebra(f0) + serialize_algebra(f2.abstract)
    docs = parse_algebras(text)
    assert [abstract_of(d).size for d in docs] == [1, 4]


def test_comments_and_blank_lines(f0):
    text = "# corpus\n\n" + serialize_algebra(f0) + "# trailing\n"
    assert parse_algebras(text)[0] == f0


def test_parse_error_cites_position():
    with pytest.raises(ParseError) as err:
        parse_algebras("size x\n")
    assert err.value.line == 1
    assert err.value.col == 6

    with pytest.raises(ParseError, match="row has 1 entries"):
        parse_algebras("size 2\nminus\n0\n")


def test_parse_error_on_garbage_keyword():
    with pytest.raises(ParseError, match="expected 'size"):
        parse_algebras("shape 2\n")


def test_literal_parse():
    base = frozenset({1, 2})
    f = parse_pf_literal("{1->1, 2->2}", base, line=1)
    assert f.graph == {(1, 1), (2, 2)}
    assert parse_pf_literal("{}", base, line=1).graph == frozenset()


def test_literal_errors():
    base = frozenset({1, 2})
    with pytest.raises(ParseError, match="malformed"):
        parse_pf_literal("{1->}", base, line=3)
    with pytest.raises(ParseError, match="outside the base"):
        parse_pf_literal("{1->9}", base, line=3)


def test_base_forms():
    text = (
        "size 1\nminus\n0\nrestrict\n0\nbase 2 4\ndictionary\n0 {}\n"
    )
    conc = parse_algebras(text)[0]
    assert conc.base == frozenset({2, 4})
    # non-contiguous bases serialize as point lists and parse back
    again = parse_algebras(serialize_concrete(conc))[0]
    assert again.base == conc.base


def test_empty_base():
    text = "size 1\nminus\n0\nrestrict\n0\nbase 1..0\ndictionary\n0 {}\n"
    conc = parse_algebras(text)[0]
    assert conc.base == frozenset()


def test_base_range_beyond_the_cap_is_rejected_at_its_token():
    text = f"size 1\nminus\n0\nrestrict\n0\nbase 1..{BASE_RANGE_CAP + 1}\ndictionary\n0 {{}}\n"
    with pytest.raises(ParseError, match=r"line 6, column 6: base range .* more than"):
        parse_algebras(text)


def test_contiguous_base_beyond_the_cap_round_trips_as_a_point_list():
    base = range(1, BASE_RANGE_CAP + 2)
    conc = close_generators(base, [PartialFunction(base, [(1, 1)])])
    text = serialize_concrete(conc)
    assert "\nbase 1 2 3 " in text
    assert parse_algebras(text)[0].base == conc.base


def test_dictionary_id_errors(f2):
    text = serialize_concrete(f2).replace("\n0 {1->1}", "\n9 {1->1}")
    with pytest.raises(ParseError, match="bad dictionary id"):
        parse_algebras(text)


def test_dictionary_not_closed_names_the_missing_product():
    text = serialize_concrete(boolean_as_diffrest(2)).replace("\n3 {2->2}", "\n3 {1->2}")
    with pytest.raises(
        InconsistencyError, match=r"minus\(2, 1\) = \{2->2\} is not an element"
    ):
        parse_algebras(text)


@pytest.mark.parametrize("message", MALFORMED_DICTIONARIES)
def test_malformed_dictionary_is_a_partial_function_error(message):
    with pytest.raises(PfunError, match=message) as err:
        parse_algebras(MALFORMED_DICTIONARIES[message])
    assert isinstance(err.value, InconsistencyError)


def test_names_roundtrip():
    alg = FiniteAlgebra.from_tables([[0]], [[0]], ["bottom"])
    assert parse_algebras(serialize_algebra(alg))[0].names == ("bottom",)


# Exact positions of parse errors.  Columns count characters from 1, a
# tab as one, and the text after ``#`` is never read.
_F2_TABLES = "size 2\nminus\n0 0\n1 0\nrestrict\n0 0\n0 1\n"


@pytest.mark.parametrize(
    "text, where",
    [
        # a non-integer in the middle of a minus row, after tabs, with a comment
        (
            "size 3\nminus\n0 0 0\n\t1 \t1x\t0  # 1 1 0\n",
            "line 4, column 5: expected an integer in the minus row",
        ),
        # the same in a restrict row, where the comment holds a number too
        (
            "size 3\nminus\n0 0 0\n0 0 0\n0 0 0\nrestrict\n0 0 0\n  0\t0.5 0 #0\n",
            "line 8, column 5: expected an integer in the restrict row",
        ),
        (
            "size 3\nminus\n0 0 0\n0 0 -\t# x\n",
            "line 4, column 5: expected an integer in the minus row",
        ),
        # a short row names its first token
        (
            "size 3\nminus\n0 0 0\n \t0 0  # 0\n",
            "line 4, column 3: minus row has 2 entries, expected 3",
        ),
        (
            "size 2\nminus\n0 0\n0 0\nrestrict\n0 0\n\n0 0 0\n",
            "line 8, column 1: restrict row has 3 entries, expected 2",
        ),
        # a wrong element_names count names the keyword
        (
            _F2_TABLES + "  element_names k # 0\n",
            "line 8, column 3: element_names lists 1 names, expected 2",
        ),
        # a missing token is placed just after the line's last token, not
        # after its comment
        ("size\t# 3\n", "line 1, column 5: expected the element count"),
        # a bad dictionary id: out of range, repeated, not an integer
        (
            _F2_TABLES + "base 1\ndictionary\n0 {}\n\t 2 {}\n",
            "line 11, column 3: bad dictionary id 2",
        ),
        (
            _F2_TABLES + "base 1\ndictionary\n  1 {1->1}\n1 {}\n",
            "line 11, column 1: bad dictionary id 1",
        ),
        (
            _F2_TABLES + "base 1\ndictionary\n0 {}\n  x {}\n",
            "line 11, column 3: expected an element id",
        ),
    ],
)
def test_parse_errors_name_line_and_column(text, where):
    with pytest.raises(ParseError) as err:
        parse_algebras(text)
    assert str(err.value) == where
    line, col = (int(s.split()[-1]) for s in where.split(":")[0].split(","))
    assert (err.value.line, err.value.col) == (line, col)
