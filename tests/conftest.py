"""Shared fixtures: the small named algebras used throughout the suite,
the acceptance corpus, and the two algebras of the benchmark's ``large``
workload.

Element ids follow the closure discovery order (generators first, then
products breadth-first, ties by lexicographic graph):

  F1: k=0, empty=1                      over base {1}
  F2: k=0, m=1, h=2, empty=3            over base {1, 2}
  F3: k=0, m=1, empty=2                 over base {1, 2}
  F4: f=0, g=1, empty=2                 over base {1, 2}
  N1: c=0, d=1, empty=2, e=3            relations over base {1, 2}
"""

import dataclasses
import random

import pytest

from diffrest import (
    FiniteAlgebra,
    PartialFunction,
    boolean_as_diffrest,
    close_generators,
    enumerate_axiom_models,
    generating_set,
    random_generators,
    serialize_concrete,
)

from lemmas import close_relations, relabel

K = 0
M = 1
H = 2
F2_ZERO = 3

F = 0
G = 1

N1_C = 0
N1_D = 1
N1_E = 3

CORPUS_SEED = 74

# Concrete files of boolean_as_diffrest(2) whose dictionary does not
# certify the tables, keyed by the error message.
_TWO_ATOMS = serialize_concrete(boolean_as_diffrest(2))
MALFORMED_DICTIONARIES = {
    # entry 3 lists the same partial function as entry 1
    "concrete elements are not distinct": _TWO_ATOMS.replace("\n3 {2->2}", "\n3 {1->1}"),
    # minus[2][3] changed from 1 to 2
    "abstract tables disagree with pointwise evaluation": _TWO_ATOMS.replace(
        "\n2 3 0 1\n", "\n2 3 0 2\n"
    ),
}
assert all(text != _TWO_ATOMS for text in MALFORMED_DICTIONARIES.values())


def named(conc, names):
    alg = FiniteAlgebra.from_tables(conc.abstract.minus, conc.abstract.restrict, names)
    return dataclasses.replace(conc, abstract=alg)


def make_f0() -> FiniteAlgebra:
    return FiniteAlgebra.from_tables([[0]], [[0]], ["0"])


def make_f1():
    k = PartialFunction({1}, [(1, 1)])
    return named(close_generators({1}, [k]), ["k", "0"])


def make_f2():
    k = PartialFunction({1, 2}, [(1, 1)])
    m = PartialFunction({1, 2}, [(2, 2)])
    h = PartialFunction({1, 2}, [(1, 1), (2, 2)])
    return named(close_generators({1, 2}, [k, m, h]), ["k", "m", "h", "0"])


def make_f3():
    k = PartialFunction({1, 2}, [(1, 1)])
    m = PartialFunction({1, 2}, [(2, 2)])
    return named(close_generators({1, 2}, [k, m]), ["k", "m", "0"])


def make_f4():
    f = PartialFunction({1, 2}, [(1, 1)])
    g = PartialFunction({1, 2}, [(1, 2)])
    return named(close_generators({1, 2}, [f, g]), ["f", "g", "0"])


def make_n1():
    alg, graphs = close_relations({1, 2}, [[(1, 1), (1, 2)], [(1, 1)]])
    return FiniteAlgebra.from_tables(alg.minus, alg.restrict, ["c", "d", "0", "e"]), graphs


@pytest.fixture(scope="session")
def f0():
    return make_f0()


@pytest.fixture(scope="session")
def f1():
    return make_f1()


@pytest.fixture(scope="session")
def f2():
    return make_f2()


@pytest.fixture(scope="session")
def f3():
    return make_f3()


@pytest.fixture(scope="session")
def f4():
    return make_f4()


@pytest.fixture(scope="session")
def n1():
    return make_n1()


def build_corpus(count=200, seed=CORPUS_SEED):
    """The seeded random closure corpus used by the acceptance suite."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        base_size = rng.randint(1, 4)
        n_gens = rng.randint(1, 3)
        base = range(1, base_size + 1)
        out.append(close_generators(base, random_generators(rng, base, n_gens)))
    return out


@pytest.fixture(scope="session")
def corpus200():
    return build_corpus()


def small_algebras():
    """F0-F4, N1 and all 15 law models of size <= 5."""
    out = [make_f0()] + [f().abstract for f in (make_f1, make_f2, make_f3, make_f4)]
    out.append(make_n1()[0])
    for n in range(1, 6):
        out.extend(enumerate_axiom_models(n).models)
    return out


@pytest.fixture(scope="module")
def small():
    algebras = small_algebras()
    assert len(algebras) == 6 + 15
    return algebras


RELABEL_DRAWS = 1000


def relabel_until(alg, seed, n_gens):
    """Shuffle the element ids with a seeded generator until the greedy
    generating set has ``n_gens`` elements, giving up after
    ``RELABEL_DRAWS`` shuffles, so that a broken ``generating_set``
    fails instead of hanging."""
    rng = random.Random(seed)
    sigma = list(range(alg.size))
    for _ in range(RELABEL_DRAWS):
        rng.shuffle(sigma)
        out = relabel(alg, sigma)
        if len(generating_set(out)) == n_gens:
            return out
    raise AssertionError(
        f"no relabeling in {RELABEL_DRAWS} draws at seed {seed} has {n_gens} generators"
    )


def seed1_closure():
    """The seed-1 closure of 6 random generators on 6 points (36 elements)."""
    base = range(1, 7)
    return close_generators(base, random_generators(random.Random(1), base, 6)).abstract


def large_algebras():
    """The two algebras of the benchmark's ``large`` workload at seed 1:
    the 64-element powerset and the seed-1 closure relabeled to keep a
    5-element generating set."""
    return [boolean_as_diffrest(6).abstract, relabel_until(seed1_closure(), 1, 5)]


@pytest.fixture(scope="module")
def large():
    return large_algebras()
