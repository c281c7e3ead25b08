"""Shared fixtures and helpers, and the differential corpus that the
reference tests read.

Sources, each a session fixture: the named algebras ``f0`` to ``f4``
and ``n1`` below; ``small``, which is F0-F4, N1 and the 15 law models
of size <= 5; the seeded 200-closure acceptance corpus, as closures
(``corpus200``) and as tables (``corpus``); ``large``, the two algebras
of the benchmark's ``large`` workload (``large_concrete`` holds the
closures they come from); and ``powersets``, of 2, 3 and 4 points.

The perturbed copies come from two perturbers.  ``perturbed`` changes
one to three table cells; each ``perturbed_*`` family draws from its
sources with its own seed and keeps each table pair once, except
``perturbed_large``, whose 40 copies ``test_law_bytes.PINNED_FAILURES``
pins in order.  ``perturbed_quotients`` draws only from the corpus
algebras of at most 8 elements with a domain class of two or more.
``perturbed_representation`` makes one edit of a representation;
``representations`` holds each construction of the law algebras of
``small``, ``corpus`` and ``large`` and one copy of it for each of
``REPRESENTATION_EDITS``, each kept once.  ``test_corpus.py`` pins every
family.

Element ids follow the closure discovery order (generators first, then
products breadth-first, ties by lexicographic graph):

  F1: k=0, empty=1                      over base {1}
  F2: k=0, m=1, h=2, empty=3            over base {1, 2}
  F3: k=0, m=1, empty=2                 over base {1, 2}
  F4: f=0, g=1, empty=2                 over base {1, 2}
  N1: c=0, d=1, empty=2, e=3            relations over base {1, 2}
"""

import inspect
import random
import subprocess
import sys

import pytest

from diffrest import (
    AlgebraError,
    ConcreteAlgebra,
    FiniteAlgebra,
    PartialFunction,
    Representation,
    atomic_eta,
    atomic_theta,
    boolean_as_diffrest,
    canonical_theta,
    close_generators,
    domain_quotient,
    enumerate_axiom_models,
    generating_set,
    injective_eta,
    random_generators,
    serialize_concrete,
)

from diffrest.algebra import mask_iter
from diffrest.oracle import _NodeLimit
from lemmas import close_relations, relabel

K = 0
M = 1
H = 2
F2_ZERO = 3

F = 0
G = 1

N1_C = 0
N1_D = 1

CORPUS_SEED = 74

CONSTRUCTIONS = (canonical_theta, injective_eta, atomic_theta, atomic_eta)

# Edits of the concrete file of boolean_as_diffrest(2) after which its
# dictionary does not certify the tables, keyed by the error message.
MALFORMED_EDITS = {
    # entry 3 lists the same partial function as entry 1
    "concrete elements are not distinct": ("\n3 {2->2}", "\n3 {1->1}"),
    # minus[2][3] changed from 1 to 2
    "abstract tables disagree with pointwise evaluation": ("\n2 3 0 1\n", "\n2 3 0 2\n"),
}


def malformed_dictionary(message: str) -> str:
    """The file that ``MALFORMED_EDITS[message]`` makes, built when a test
    asks for it, so that a library fault fails that test, not collection."""
    old, new = MALFORMED_EDITS[message]
    text = serialize_concrete(boolean_as_diffrest(2))
    assert text.count(old) == 1
    return text.replace(old, new)


def outcome(fn, *args):
    """What ``fn`` returns, or, as one string, the type and text of the
    input error it raises."""
    try:
        return fn(*args)
    except AlgebraError as err:
        return f"{type(err).__name__}: {err}"


def pairs(rows):
    """The pairs of a relation held as row masks."""
    return frozenset((a, b) for a, row in enumerate(rows) for b in mask_iter(row))


def search_outcome(search, *args, limit=10**9):
    """The columns a trace search returns, given ``args`` and then a node
    counter and limit, or "limit" when it runs out of nodes, with its node
    counter."""
    counter = [0]
    try:
        return search(*args, counter, limit), counter[0]
    except _NodeLimit:
        return "limit", counter[0]


def run_cli(*argv, **kwargs):
    """``python -m diffrest`` with ``argv``; stdout and stderr are pipes
    read as text unless ``kwargs`` say otherwise."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, "-m", "diffrest", *argv], text=True, **kwargs)


def source_mutant(module, names, old: str, new: str):
    """The function ``names[-1]`` of ``module``, compiled with the ones
    before it in ``names`` from their source, with ``old`` (which occurs
    once) replaced by ``new``."""
    source = "".join(inspect.getsource(getattr(module, name)) for name in names)
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[names[-1]]


def edited(alg, table, a, b, value):
    """``alg`` with the one cell ``table[a][b]`` set to ``value``."""
    tables = {"minus": [list(row) for row in alg.minus]}
    tables["restrict"] = [list(row) for row in alg.restrict]
    tables[table][a][b] = value
    return FiniteAlgebra.from_tables(tables["minus"], tables["restrict"])


def perturbed(alg, rng, table=None):
    """``alg`` with one to three cells of ``table``, or of either table
    when it is None, changed.  A minus diagonal cell moves to the next
    column, as FiniteAlgebra requires a constant minus diagonal."""
    for _ in range(rng.randint(1, 3)):
        which = table or rng.choice(("minus", "restrict"))
        a, b = rng.randrange(alg.size), rng.randrange(alg.size)
        if which == "minus" and a == b:
            b = (b + 1) % alg.size
            if a == b:
                continue
        alg = edited(alg, which, a, b, rng.randrange(alg.size))
    return alg


def perturbed_family(sources, seed, draws, table=None):
    """Perturbed copies of ``draws`` algebras drawn from ``sources`` with
    one seeded generator, each table pair kept once: copies with equal
    tables check nothing new."""
    rng = random.Random(seed)
    copies = (perturbed(rng.choice(sources), rng, table) for _ in range(draws))
    return list({(alg.minus, alg.restrict): alg for alg in copies}.values())


def relation(base, graph):
    """A ``PartialFunction`` value that skips the functionality check,
    as a representation-shaped object from outside may hold."""
    return tuple.__new__(PartialFunction, (frozenset(base), frozenset(graph)))


# The edits of ``perturbed_representation``.  Edited values are built
# with ``relation``, so edits compose.
REPRESENTATION_EDITS = {
    "point": "one value sends one state to another state, or to none",
    "drop pair": "one value loses one of its pairs",
    "add pair": "one value gets a pair at a state outside its domain",
    "relation": "one value gets a second image for a state of its domain",
    "swap": "two elements trade values",
    "duplicate": "one element gets the value of another",
    "widen": "one element keeps its graph over one more state",
    "widen other": "one element gets the value of another over one more state",
    "drop value": "the last element loses its value",
}


def perturbed_representation(rep, rng, edit):
    """An external copy of ``rep`` with one of ``REPRESENTATION_EDITS``,
    or ``rep`` when the edit needs a state, a pair or a state outside a
    domain and the values have none."""
    values = list(rep.assignment)
    states = sorted(values[0].base)
    a, b = rng.randrange(len(values)), rng.randrange(len(values))
    filled = [c for c, f in enumerate(values) if f.graph]
    partial = [c for c, f in enumerate(values) if len(f.domain) < len(states)]
    if edit == "drop value":
        values.pop()
    elif edit == "swap":
        values[a], values[b] = values[b], values[a]
    elif edit == "duplicate":
        values[a] = values[b]
    elif edit in ("widen", "widen other"):
        graph = values[a if edit == "widen" else b].graph
        values[a] = relation({*states, max(states, default=0) + 1}, graph)
    elif edit == "point" and states:
        x, y = rng.choice(states), rng.choice([None, *states])
        graph = {p for p in values[a].graph if p[0] != x}
        values[a] = relation(states, graph if y is None else graph | {(x, y)})
    elif edit == "drop pair" and filled:
        c = rng.choice(filled)
        values[c] = relation(states, values[c].graph - {rng.choice(sorted(values[c].graph))})
    elif edit == "relation" and filled and len(states) > 1:
        c = rng.choice(filled)
        x, y = rng.choice(sorted(values[c].graph))
        z = rng.choice([z for z in states if z != y])
        values[c] = relation(states, values[c].graph | {(x, z)})
    elif edit == "add pair" and partial:
        c = rng.choice(partial)
        x = rng.choice(sorted(set(states) - values[c].domain))
        values[c] = relation(states, values[c].graph | {(x, rng.choice(states))})
    else:
        return rep
    return Representation(rep.source, "external", rep.states, tuple(values))


def named(conc, names):
    alg = FiniteAlgebra.from_tables(conc.abstract.minus, conc.abstract.restrict, names)
    return ConcreteAlgebra(conc.base, conc.elements, alg)


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


f0 = pytest.fixture(make_f0, scope="session", name="f0")
f1 = pytest.fixture(make_f1, scope="session", name="f1")
f2 = pytest.fixture(make_f2, scope="session", name="f2")
f3 = pytest.fixture(make_f3, scope="session", name="f3")
f4 = pytest.fixture(make_f4, scope="session", name="f4")
n1 = pytest.fixture(make_n1, scope="session", name="n1")


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


@pytest.fixture(scope="session")
def corpus(corpus200):
    return [conc.abstract for conc in corpus200]


# The fixtures were built when catalogs listed their classes in another
# order (that of an isomorphism label), and the perturbed families, the
# pinned representations and the golden digests draw from them in order.
# Position i of a size-n fixture list holds catalog model FIXTURE_ORDER[n][i],
# so those inputs stay byte-identical.
FIXTURE_ORDER = {4: (2, 0, 1, 3), 5: (1, 0, 4, 3, 2, 5, 6)}


def law_models(n: int) -> list[FiniteAlgebra]:
    """The law models of size ``n``, in the fixtures' order."""
    models = enumerate_axiom_models(n).models
    return [models[i] for i in FIXTURE_ORDER.get(n, range(len(models)))]


@pytest.fixture(scope="session")
def models():
    """The law models of size <= 5."""
    found = [model for n in range(1, 6) for model in law_models(n)]
    assert len(found) == 15
    return found


@pytest.fixture(scope="session")
def small(f0, f1, f2, f3, f4, n1, models):
    return [f0, *(conc.abstract for conc in (f1, f2, f3, f4)), n1[0], *models]


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
    return close_generators(base, random_generators(random.Random(1), base, 6))


@pytest.fixture(scope="session")
def large_concrete():
    """The 64-element powerset and the seed-1 closure."""
    return [boolean_as_diffrest(6), seed1_closure()]


@pytest.fixture(scope="session")
def large(large_concrete):
    """The two algebras of the benchmark's ``large`` workload at seed 1:
    the 64-element powerset and the seed-1 closure relabeled to keep a
    5-element generating set."""
    powerset, closure = large_concrete
    return [powerset.abstract, relabel_until(closure.abstract, 1, 5)]


@pytest.fixture(scope="session")
def powersets():
    return [boolean_as_diffrest(u).abstract for u in (2, 3, 4)]


def _sized(algebras):
    return [alg for alg in algebras if 2 <= alg.size <= 12]


@pytest.fixture(scope="session")
def perturbed_small(small):
    return perturbed_family(_sized(small), 6, 300)


@pytest.fixture(scope="session")
def perturbed_corpus(corpus):
    return perturbed_family(_sized(corpus), 6, 300)


@pytest.fixture(scope="session")
def perturbed_quotients(corpus):
    """Copies of the corpus algebras of at most 8 elements whose domain
    classes are not all singletons, which reach the class-table checks."""
    sources = [a for a in corpus if a.size <= 8 and domain_quotient(a).n_classes < a.size]
    return perturbed_family(sources, 3, 600)


@pytest.fixture(scope="session")
def perturbed_large(large):
    rng = random.Random(13)
    return [perturbed(alg, rng) for alg in large for _ in range(20)]


@pytest.fixture(scope="session")
def perturbed_powersets(powersets):
    return perturbed_family(powersets, 15, 2000)


@pytest.fixture(scope="session")
def perturbed_powerset_minus(powersets):
    return perturbed_family(powersets, 8, 3000, "minus")


@pytest.fixture(scope="session")
def perturbed_restrict(small, corpus):
    return perturbed_family(_sized(small + corpus), 8, 400, "restrict")


@pytest.fixture(scope="session")
def representations(small, n1, corpus, large):
    """Per family, (edit, representation) pairs without repeats: each
    construction, with edit None, then one copy for each of
    ``REPRESENTATION_EDITS`` (seed 5)."""
    rng = random.Random(5)
    models = [alg for alg in small if alg is not n1[0]]
    out = {}
    for name, algebras in {"small": models, "corpus": corpus, "large": large}.items():
        reps = {}
        for rep in (build(alg) for alg in algebras for build in CONSTRUCTIONS):
            copies = [(e, perturbed_representation(rep, rng, e)) for e in REPRESENTATION_EDITS]
            for edit, copy in [(None, rep), *copies]:
                reps.setdefault((id(rep.source), copy.states, copy.assignment), (edit, copy))
        out[name] = list(reps.values())
    return out
