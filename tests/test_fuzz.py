"""Mutated algebra files give input errors or verdicts, never crashes.

Each example takes a valid serialization and inserts, deletes or
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
    boolean_as_diffrest,
    parse_algebras,
    serialize_algebra,
    serialize_concrete,
)
from diffrest.cli import main

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
