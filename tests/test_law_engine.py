"""The term-pair law engine against the law definitions it replaced.

REFERENCE_AXIOM_LAWS and REFERENCE_DERIVED_LAWS are the laws as they
were written before the engine, one Python predicate per law, kept
verbatim together with the comparable-pair scan of ``restrict-monotone``
and the instance-by-instance scan.  They are the specification: the
engine must break a law at exactly the assignments where the predicate
is false, in the same order, on every algebra below.
"""

import itertools
import signal
from typing import Callable, NamedTuple

import pytest

from diffrest import (
    AxiomReport,
    FiniteAlgebra,
    LawVerdict,
    check_axioms,
    check_derived_laws,
)
from diffrest.algebra import LAW_TABLE, _compile, law_failures, parse_law
from diffrest.oracle import _cell_check
from lemmas import evaluate_law

# ---------------------------------------------------------------------------
# Reference specification (verbatim)
# ---------------------------------------------------------------------------


class Law(NamedTuple):
    name: str
    varnames: tuple[str, ...]
    holds: Callable[..., bool]  # holds(minus, restrict, zero, *assignment)
    scan: Callable[[FiniteAlgebra], tuple[int, ...] | None] | None = None


def _mt(m, a: int, b: int) -> int:
    return m[a][m[a][b]]


def _le(m, a: int, b: int) -> bool:
    return _mt(m, a, b) == a


def _scan_monotone(alg: FiniteAlgebra) -> tuple[int, ...] | None:
    # Quantifies over comparable pairs only; iteration order is still the
    # lexicographic order on (a, b, c, d) restricted to the antecedent.
    m, r = alg.minus, alg.restrict
    n = alg.size
    pairs = [(a, b) for a in range(n) for b in range(n) if _le(m, a, b)]
    for a, b in pairs:
        for c, d in pairs:
            if not _le(m, r[a][c], r[b][d]):
                return (a, b, c, d)
    return None


REFERENCE_AXIOM_LAWS: tuple[Law, ...] = (
    Law("Ax.1", ("a", "b"), lambda m, r, z, a, b: m[a][m[b][a]] == a),
    Law("Ax.2", ("a", "b"), lambda m, r, z, a, b: _mt(m, a, b) == _mt(m, b, a)),
    Law("Ax.3", ("a", "b", "c"), lambda m, r, z, a, b, c: m[m[a][b]][c] == m[m[a][c]][b]),
    Law(
        "Ax.4",
        ("a", "b", "c"),
        lambda m, r, z, a, b, c: _mt(m, r[a][c], r[b][c]) == r[r[a][b]][c],
    ),
    Law("Ax.5", ("a", "b"), lambda m, r, z, a, b: r[_mt(m, a, b)][a] == _mt(m, a, b)),
)

REFERENCE_DERIVED_LAWS: tuple[Law, ...] = (
    Law(
        "meet-minus-disjoint",
        ("a", "b"),
        lambda m, r, z, a, b: _mt(m, b, m[a][b]) == z,
    ),
    Law(
        "minus-absorbs-meet",
        ("a", "b"),
        lambda m, r, z, a, b: m[a][_mt(m, a, b)] == m[a][b],
    ),
    Law(
        "meet-minus-assoc",
        ("a", "b", "c"),
        lambda m, r, z, a, b, c: _mt(m, a, m[b][c]) == m[_mt(m, a, b)][c],
    ),
    Law("restrict-below", ("a", "b"), lambda m, r, z, a, b: _le(m, r[b][a], a)),
    Law(
        "restrict-assoc",
        ("a", "b", "c"),
        lambda m, r, z, a, b, c: r[a][r[b][c]] == r[r[a][b]][c],
    ),
    Law(
        "restrict-meet-absorb",
        ("a", "b"),
        lambda m, r, z, a, b: r[r[a][b]][_mt(m, a, b)] == _mt(m, a, b),
    ),
    Law(
        "restrict-over-meet",
        ("a", "b", "c"),
        lambda m, r, z, a, b, c: r[a][_mt(m, b, c)] == _mt(m, r[a][b], c),
    ),
    Law(
        "restrict-over-minus",
        ("a", "b", "c"),
        lambda m, r, z, a, b, c: m[r[a][b]][c] == r[a][m[b][c]],
    ),
    Law(
        "restrict-monotone",
        ("a", "b", "c", "d"),
        lambda m, r, z, a, b, c, d: not (_le(m, a, b) and _le(m, c, d))
        or _le(m, r[a][c], r[b][d]),
        scan=_scan_monotone,
    ),
)


def _scan_laws(alg: FiniteAlgebra, laws) -> AxiomReport:
    m, r, z = alg.minus, alg.restrict, alg.zero
    verdicts = []
    for law in laws:
        if law.scan is not None:
            witness = law.scan(alg)
        else:
            witness = None
            for assignment in itertools.product(range(alg.size), repeat=len(law.varnames)):
                if not law.holds(m, r, z, *assignment):
                    witness = assignment
                    break
        verdicts.append(LawVerdict(law.name, witness is None, witness))
    return AxiomReport(tuple(verdicts))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

REFERENCE_LAWS = REFERENCE_AXIOM_LAWS + REFERENCE_DERIVED_LAWS


def reference_failures(law: Law, alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Every assignment where the reference predicate is false, in
    lexicographic order.  For ``restrict-monotone`` only the comparable
    pairs are tried, in that order: the predicate is true elsewhere by
    its own first clause."""
    m, r, z = alg.minus, alg.restrict, alg.zero
    if law.scan is None:
        candidates = itertools.product(range(alg.size), repeat=len(law.varnames))
    else:
        pairs = [(a, b) for a in range(alg.size) for b in range(alg.size) if _le(m, a, b)]
        candidates = ((a, b, c, d) for a, b in pairs for c, d in pairs)
    return [w for w in candidates if not law.holds(m, r, z, *w)]


def assert_same_as_reference(alg: FiniteAlgebra) -> int:
    """Every law's failures match the reference; returns the number of
    laws that fail."""
    broken = 0
    for law in REFERENCE_LAWS:
        expected = reference_failures(law, alg)
        assert list(law_failures(LAW_TABLE[law.name], alg.tables)) == expected, law.name
        broken += bool(expected)
    assert check_axioms(alg) == _scan_laws(alg, REFERENCE_AXIOM_LAWS)
    assert check_derived_laws(alg) == _scan_laws(alg, REFERENCE_DERIVED_LAWS)
    return broken


def test_same_failures_on_fixtures_and_small_models(small):
    assert sum(assert_same_as_reference(alg) for alg in small) == 1  # N1 breaks Ax.5


def test_same_failures_on_the_acceptance_corpus(corpus):
    assert len(corpus) == 200
    for alg in corpus:
        assert assert_same_as_reference(alg) == 0


def test_same_failures_on_the_large_algebras(large):
    """The two algebras of the benchmark's ``large`` workload at seed 1."""
    for alg in large:
        assert assert_same_as_reference(alg) == 0


def test_same_failures_on_perturbed_copies(perturbed_small, perturbed_corpus):
    broken = {law.name: 0 for law in REFERENCE_LAWS}
    for alg in perturbed_small + perturbed_corpus:
        assert_same_as_reference(alg)
        for verdict in check_axioms(alg).verdicts + check_derived_laws(alg).verdicts:
            broken[verdict.law] += not verdict.passed
    # Every law, the monotone one included, is broken by some copy.
    assert min(broken.values()) > 0, broken


def test_term_evaluator_matches_every_instance(small):
    for alg in small:
        m, r, z = alg.minus, alg.restrict, alg.zero
        for law in REFERENCE_LAWS:
            for w in itertools.product(range(alg.size), repeat=len(law.varnames)):
                assert evaluate_law(alg, law.name, w) is law.holds(m, r, z, *w), (law.name, w)


# Term shapes the library's laws do not use: a one-variable law, the last
# variable as a whole side, an order law with a varying left side, a
# fixed side against a restricted last variable, and a fixed left side
# of "<=" with no antecedent.  Each is true in every model.
EXTRA_LAWS = (
    ("a", "a |> a == a", lambda m, r, z, a: r[a][a] == a),
    ("ab", "a & b <= b", lambda m, r, z, a, b: _le(m, _mt(m, a, b), b)),
    ("ab", "a <= b => a |> b == a", lambda m, r, z, a, b: not _le(m, a, b) or r[a][b] == a),
    ("ab", "0 <= a - b", lambda m, r, z, a, b: _le(m, z, m[a][b])),
)


@pytest.mark.parametrize("varnames, text, holds", EXTRA_LAWS, ids=[e[1] for e in EXTRA_LAWS])
def test_other_term_shapes_scan_like_their_predicates(
    varnames, text, holds, small, perturbed_small, perturbed_corpus
):
    law = parse_law(text, varnames, text)
    broken = 0
    for alg in small + perturbed_small + perturbed_corpus:
        m, r, z = alg.minus, alg.restrict, alg.zero
        expected = [
            w
            for w in itertools.product(range(alg.size), repeat=len(varnames))
            if not holds(m, r, z, *w)
        ]
        assert list(law_failures(law, alg.tables)) == expected
        broken += bool(expected)
    assert broken > 0


# Each mutant changes one law's term pair; the comparison must see it.
MUTANTS = (
    ("flip an operation", "restrict-assoc", "abc", "a |> (b |> c) == (a & b) |> c"),
    ("swap two arguments", "Ax.3", "abc", "(a - b) - c == (c - a) - b"),
    ("drop an antecedent", "restrict-monotone", "abcd", "a <= b => a |> c <= b |> d"),
    ("weaken = to <=", "Ax.4", "abc", "(a |> c) & (b |> c) <= (a |> b) |> c"),
)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_comparison_catches_term_pair_mutants(
    mutant, small, perturbed_small, perturbed_corpus, monkeypatch
):
    _, name, varnames, text = mutant
    monkeypatch.setitem(LAW_TABLE, name, parse_law(name, varnames, text))
    with pytest.raises(AssertionError):
        for alg in small + perturbed_small + perturbed_corpus:
            assert_same_as_reference(alg)


# Antecedents that neither compiler compiles: a cycle (the row compiler
# once looped on it forever), a second bound on one variable (the row
# scans kept only one of the two, so the law below failed from (1, 0, 0)
# on on the 2-point powerset although its antecedents make it true), and
# a bound on an earlier variable.
REFUSED_LAWS = (
    ("antisym", "ab", "a <= b, b <= a => a == b"),
    ("two bounds", "abc", "a <= c, b <= c => a <= c"),
    ("backward", "ab", "b <= a => a - b == a - b"),
)


def within_a_second(call, *args):
    """``call(*args)``, interrupted by TimeoutError after one second."""

    def timeout(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return call(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name, varnames, text", REFUSED_LAWS, ids=[r[0] for r in REFUSED_LAWS])
def test_both_compilers_refuse_antecedents_they_cannot_compile(name, varnames, text):
    law = parse_law(name, varnames, text)
    for compile_law in (_compile, lambda law: _cell_check([law], "minus")):
        with pytest.raises(ValueError, match=f"law {name}: "):
            within_a_second(compile_law, law)
