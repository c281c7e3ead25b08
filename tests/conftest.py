"""Shared fixtures: the small named algebras used throughout the suite.

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
    random_generators,
    serialize_concrete,
)

from lemmas import close_relations

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
    return dataclasses.replace(conc, abstract=conc.abstract.with_names(names))


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
    return alg.with_names(["c", "d", "0", "e"]), graphs


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
