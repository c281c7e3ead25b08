"""Mutated algebra files give input errors or verdicts, never crashes,
and random tables get the reference specification's law reports.

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
    boolean_as_diffrest,
    check_axioms,
    check_derived_laws,
    parse_algebras,
    serialize_algebra,
    serialize_concrete,
)
from diffrest.cli import main
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
