"""Mutated algebra files give input errors or verdicts, never crashes,
random tables get the reference specification's law reports, and the
embedding search's trace phase matches its reference on random closures.

Each file example takes a valid serialization and inserts, deletes or
replaces a few characters.  The runs are derandomized, so the examples
are the same on every run.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_f0, make_f2, make_n1

from diffrest import (
    AlgebraError,
    FiniteAlgebra,
    PartialFunction,
    boolean_as_diffrest,
    check_axioms,
    check_derived_laws,
    close_generators,
    generating_set,
    parse_algebras,
    serialize_algebra,
    serialize_concrete,
)
from diffrest.cli import main
from diffrest.oracle import _valid_columns
from test_embedding_search import outcome, reference_valid_columns
from test_law_engine import REFERENCE_AXIOM_LAWS, REFERENCE_DERIVED_LAWS, _scan_laws

VALID_TEXTS = (
    serialize_concrete(make_f2()),
    serialize_concrete(boolean_as_diffrest(2)),
    serialize_algebra(make_n1()[0]),
    serialize_algebra(make_f0()) + serialize_algebra(make_f2().abstract),
)

# Mostly the characters of the format itself, sometimes any character.
CHARACTERS = st.one_of(
    st.sampled_from("0123456789 \n{}->,.#"),
    st.characters(codec="utf-8"),
)


def fuzz(max_examples):
    return settings(
        derandomize=True, deadline=None, database=None, max_examples=max_examples
    )


@st.composite
def mutated_texts(draw):
    text = draw(st.sampled_from(VALID_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            text = text[:at] + draw(CHARACTERS) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + draw(CHARACTERS) + text[at + 1 :]
    return text


@fuzz(400)
@given(mutated_texts())
def test_parser_raises_only_algebra_errors(text):
    try:
        parse_algebras(text)
    except AlgebraError:
        pass


@fuzz(150)
@given(text=mutated_texts())
def test_check_returns_a_known_exit_code(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed.alg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("ERROR ")


@st.composite
def random_tables(draw):
    """Arbitrary tables of up to 6 elements with a constant minus diagonal."""
    n = draw(st.integers(1, 6))
    cell = st.integers(0, n - 1)
    zero = draw(cell)
    minus = [[zero if a == b else draw(cell) for b in range(n)] for a in range(n)]
    restrict = [[draw(cell) for _ in range(n)] for _ in range(n)]
    return FiniteAlgebra.from_tables(minus, restrict)


@fuzz(300)
@given(random_tables())
def test_law_reports_match_the_reference_spec(alg):
    assert check_axioms(alg) == _scan_laws(alg, REFERENCE_AXIOM_LAWS)
    assert check_derived_laws(alg) == _scan_laws(alg, REFERENCE_DERIVED_LAWS)


@st.composite
def random_closures(draw):
    """The closure of up to 3 random partial functions on up to 4 points."""
    points = range(1, draw(st.integers(1, 4)) + 1)
    image = st.sampled_from((0, *points))
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        values = [draw(image) for _ in points]
        graph = [(x, y) for x, y in zip(points, values) if y]
        generators.append(PartialFunction(points, graph))
    return close_generators(points, generators).abstract


@fuzz(150)
@given(random_closures(), st.data())
def test_trace_search_matches_the_reference(alg, data):
    gens = generating_set(alg)
    m = data.draw(st.integers(0, len(alg.order_atoms()) + 2), label="base")
    full = outcome(reference_valid_columns, alg, gens, m)
    limit = data.draw(st.integers(1, full[1] + 1), label="node limit")
    expected = outcome(reference_valid_columns, alg, gens, m, limit)
    assert outcome(_valid_columns, alg, gens, m, limit) == expected
    assert expected == (full if limit >= full[1] else ("limit", limit + 1))
