"""Mutated algebra files give input errors or verdicts, never crashes,
random tables get the reference specification's law reports, the
embedding search's trace phase matches its reference on random closures,
the Boolean-downset certificate, the filter checks and the lifted
preorder match theirs on random and perturbed tables, the exact
completeness test matches the subset scan on perturbed representations,
and the pair-mask closure matches the set-based closure on random
functions and relations.

Each file example takes a valid serialization and inserts, deletes or
replaces a few characters.  The runs are derandomized, so the examples
are the same on every run.  The inputs the strategies draw from are
built on first use, so that a library fault fails the tests that draw
them, not the collection of this module.
"""

import contextlib
import io
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONSTRUCTIONS, make_f0, make_f1, make_f2, make_f3, make_f4
from conftest import make_n1, outcome, perturbed, perturbed_representation, search_outcome

from diffrest import (
    AlgebraError,
    SizeCapError,
    FiniteAlgebra,
    PartialFunction,
    boolean_as_diffrest,
    check_axioms,
    check_derived_laws,
    close_generators,
    enumerate_axiom_models,
    generating_set,
    parse_algebras,
    serialize_algebra,
    serialize_concrete,
)
from diffrest.cli import main
from lemmas import close_graphs, close_relations
from test_embedding_search import _valid_columns, reference_valid_columns
from test_certificates import assert_same_family, checked_filter, downset_verdicts
from test_completeness_scan import assert_agrees_with_subset_scan
from test_law_engine import REFERENCE_AXIOM_LAWS, REFERENCE_DERIVED_LAWS, _scan_laws
from test_pair_masks import reference_close_graphs, reference_tables_for

@cache
def valid_texts() -> tuple[str, ...]:
    return (
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
    text = draw(st.sampled_from(valid_texts()))
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
    full = search_outcome(reference_valid_columns, alg, gens, m)
    limit = data.draw(st.integers(1, full[1] + 1), label="node limit")
    expected = search_outcome(reference_valid_columns, alg, gens, m, limit=limit)
    assert search_outcome(_valid_columns, alg, m, limit=limit) == expected
    assert expected == (full if limit >= full[1] else ("limit", limit + 1))


@cache
def small_powersets() -> tuple[FiniteAlgebra, ...]:
    return tuple(boolean_as_diffrest(u).abstract for u in (1, 2, 3))


# A powerset of up to 8 elements with one to three table cells changed.
PERTURBED_POWERSETS = st.deferred(
    lambda: st.builds(
        perturbed, st.sampled_from(small_powersets()), st.randoms(use_true_random=False)
    )
)


@fuzz(200)
@given(st.one_of(random_tables(), PERTURBED_POWERSETS), st.data())
def test_certificates_match_their_references(alg, data):
    downset_verdicts(alg)
    assert_same_family(alg)
    members = data.draw(st.frozensets(st.integers(0, alg.size - 1)), label="filter members")
    checked_filter(alg, members)


@cache
def sample_representations() -> tuple:
    return tuple(
        build(alg)
        for alg in (
            make_f0(),
            *(make().abstract for make in (make_f1, make_f2, make_f3, make_f4)),
            *(model for n in (4, 5) for model in enumerate_axiom_models(n).models),
            boolean_as_diffrest(3).abstract,
        )
        for build in CONSTRUCTIONS
    )


@st.composite
def perturbed_representations(draw):
    """A representation of at most 8 elements with up to 4 values
    edited: a pair dropped, or a point sent somewhere else."""
    rep = draw(st.sampled_from(sample_representations()))
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 4))):
        rep = perturbed_representation(rep, rng, "point")
    return rep


@fuzz(300)
@given(perturbed_representations())
def test_exact_completeness_matches_the_subset_scan(rep):
    assert assert_agrees_with_subset_scan(rep, cap=20)[0]


@st.composite
def seed_lists(draw):
    """Up to 4 random partial functions, or relations, on up to 5 points,
    and a cap that is small or the default."""
    points = range(1, draw(st.integers(1, 5)) + 1)
    functional = draw(st.booleans())
    pair = st.tuples(st.sampled_from(points), st.sampled_from(points))
    seeds = []
    for _ in range(draw(st.integers(1, 4))):
        if functional:
            image = {x: draw(st.sampled_from((0, *points))) for x in points}
            seeds.append(frozenset((x, y) for x, y in image.items() if y))
        else:
            seeds.append(frozenset(draw(st.sets(pair, max_size=8))))
    cap = draw(st.one_of(st.integers(1, 12), st.just(None)))
    return points, seeds, functional, cap


@fuzz(300)
@given(seed_lists())
def test_mask_closure_matches_the_set_closure(drawn):
    points, seeds, functional, cap = drawn
    capped = () if cap is None else (cap,)
    want = outcome(reference_close_graphs, seeds, *capped)
    assert outcome(close_graphs, seeds, *capped) == want
    if cap is not None:
        return
    try:
        if functional:
            conc = close_generators(points, [PartialFunction(points, g) for g in seeds])
            alg, graphs = conc.abstract, [f.graph for f in conc.elements]
        else:
            alg, graphs = close_relations(points, seeds)
    except SizeCapError as err:
        assert f"SizeCapError: {err}" == want
        return
    assert list(graphs) == want
    assert (alg.minus, alg.restrict) == reference_tables_for(want)
