"""Algebra file parsing, serialization, and literals."""

import pytest

from conftest import MALFORMED_DICTIONARIES

from diffrest import (
    ConcreteAlgebra,
    FiniteAlgebra,
    InconsistencyError,
    ParseError,
    PfunError,
    abstract_of,
    boolean_as_diffrest,
    parse_algebras,
    parse_pf_literal,
    serialize_algebra,
    serialize_concrete,
)


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
