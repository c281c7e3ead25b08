"""Closure, the ``ConcreteAlgebra`` certificate and the verifier on pair
masks, against the set-based code they replaced.

The ``reference_*`` functions are that code, kept verbatim apart from
their names: graphs are frozensets of pairs, minus is set difference
and restrict filters the pairs of the second graph by the domain of the
first.  ``reference_verify_failures`` is the verifier's loop with one
addition, the base check that now comes before the preservation checks.
``reference_certificate`` is ``ConcreteAlgebra``'s checks with the
tables derived on sets and compared whole.  Element lists, certificates,
``NotClosedError`` and ``DictionaryError`` texts, ``SizeCapError``s and
verifier failure tuples must all be equal, on conftest's representations
and their perturbed copies.
"""

import random

from conftest import CONSTRUCTIONS, outcome
from lemmas import close_graphs

from diffrest import verify_representation
from diffrest import pfun, represent
from diffrest.algebra import SIZE_CAP, FiniteAlgebra, SizeCapError
from diffrest.pfun import (
    BaseMismatchError,
    ConcreteAlgebra,
    DictionaryError,
    NotClosedError,
    PartialFunction,
)
from diffrest.represent import VerificationFailure

FAILURE_CHECKS = (
    "assignment-size",
    "functionality",
    "injectivity",
    "base",
    "minus-preserved",
    "restrict-preserved",
)


def _graph_minus(g, h):
    return g - h


def _graph_restrict(g, h):
    dom = {x for x, _ in g}
    return frozenset(p for p in h if p[0] in dom)


def reference_close_graphs(seeds, cap=SIZE_CAP):
    elems = []
    index = set()
    for g in seeds:
        if g not in index:
            index.add(g)
            elems.append(g)
    while True:
        fresh = set()
        for g in elems:
            for h in elems:
                for product in (_graph_minus(g, h), _graph_restrict(g, h)):
                    if product not in index and product not in fresh:
                        fresh.add(product)
        if not fresh:
            return elems
        for g in sorted(fresh, key=sorted):
            if len(elems) >= cap:
                raise SizeCapError(
                    f"closure exceeds the cap of {cap} elements"
                )
            index.add(g)
            elems.append(g)


def reference_tables_for(graphs):
    index = {g: i for i, g in enumerate(graphs)}
    try:
        minus_t = tuple(
            tuple(index[_graph_minus(g, h)] for h in graphs) for g in graphs
        )
        restrict_t = tuple(
            tuple(index[_graph_restrict(g, h)] for h in graphs) for g in graphs
        )
    except KeyError:
        raise reference_not_closed(graphs, index) from None
    return minus_t, restrict_t


def reference_not_closed(graphs, index):
    for name, op in (("minus", _graph_minus), ("restrict", _graph_restrict)):
        for i, g in enumerate(graphs):
            for j, h in enumerate(graphs):
                product = op(g, h)
                if product not in index:
                    literal = ", ".join(f"{x}->{y}" for x, y in sorted(product))
                    return NotClosedError(
                        f"elements are not closed: {name}({i}, {j}) = "
                        f"{{{literal}}} is not an element"
                    )
    raise AssertionError("every product is an element")


def reference_certificate(base, elements, abstract):
    graphs = [f.graph for f in elements]
    if len(set(graphs)) != len(graphs):
        raise DictionaryError("concrete elements are not distinct")
    if any(f.base != base for f in elements):
        raise BaseMismatchError("element base differs from algebra base")
    if abstract.size != len(elements):
        raise DictionaryError(f"abstract size {abstract.size} != {len(elements)} elements")
    if reference_tables_for(graphs) != (abstract.minus, abstract.restrict):
        raise DictionaryError("abstract tables disagree with pointwise evaluation")
    return base, elements, abstract


def assert_certificates_agree(base, elements, abstract):
    got = outcome(ConcreteAlgebra, base, elements, abstract)
    assert got == outcome(reference_certificate, base, elements, abstract)
    return got


def reference_verify_failures(rep):
    alg = rep.source
    failures = []
    if len(rep.assignment) != alg.size:
        failures.append(
            VerificationFailure("assignment-size", (len(rep.assignment), alg.size))
        )
        return tuple(failures)

    for a in range(alg.size):
        seen = {}
        for x, y in sorted(rep.assignment[a].graph):
            if x in seen and seen[x] != y:
                failures.append(
                    VerificationFailure("functionality", (a, (x, seen[x]), (x, y)))
                )
                break
            seen[x] = y

    graphs = {}
    for a in range(alg.size):
        g = rep.assignment[a].graph
        if g in graphs:
            failures.append(VerificationFailure("injectivity", (graphs[g], a)))
        else:
            graphs[g] = a

    # The one addition: mixed bases are reported, before preservation.
    for a in range(alg.size):
        if rep.assignment[a].base != rep.assignment[0].base:
            failures.append(VerificationFailure("base", (0, a)))
            return tuple(failures)

    for a in range(alg.size):
        for b in range(alg.size):
            want = rep.assignment[alg.minus[a][b]].graph
            got = rep.assignment[a].graph - rep.assignment[b].graph
            if want != got:
                failures.append(VerificationFailure("minus-preserved", (a, b)))
            dom = rep.assignment[a].domain
            want_r = rep.assignment[alg.restrict[a][b]].graph
            got_r = frozenset(p for p in rep.assignment[b].graph if p[0] in dom)
            if want_r != got_r:
                failures.append(VerificationFailure("restrict-preserved", (a, b)))
    return tuple(failures)


def assert_verifier_agrees(rep):
    report = verify_representation(rep)
    assert report.failures == reference_verify_failures(rep)
    assert report.passed == (not report.failures)
    base = rep.assignment[0].base if rep.assignment else frozenset()
    image = assert_certificates_agree(base, rep.assignment, rep.source)
    assert isinstance(image, ConcreteAlgebra) or not report.passed
    return report.failures


def zero_algebra(n):
    """All-zero tables of size ``n``, clamped to the sizes an algebra can
    have; the certificate refuses them by size or by a broken product."""
    n = min(max(n, 1), SIZE_CAP)
    zeros = [[0] * n] * n
    return FiniteAlgebra.from_tables(zeros, zeros)


def assert_closures_agree(conc, rng):
    """Closures of a few seed lists drawn from the graphs of ``conc``, once
    without a cap and once one element short of the closure; certificates
    of the closed list with its own tables, and of the list with one
    element missing or one added with all-zero tables of its size."""
    graphs = [f.graph for f in conc.elements]
    drawn = rng.sample(graphs, min(3, len(graphs)))
    for seeds in (graphs[:1], graphs[:3], graphs[::-1][:2], drawn):
        closed = reference_close_graphs(seeds)
        assert close_graphs(seeds) == closed
        short = max(len(closed) - 1, 1)
        assert outcome(close_graphs, seeds, short) == outcome(reference_close_graphs, seeds, short)
    base = conc.base | {-1}
    not_closed = 0
    for listed in (graphs, graphs[:-1], [*graphs, frozenset({(-1, -1)})]):
        abstract = conc.abstract if listed is graphs else zero_algebra(len(listed))
        elements = tuple(PartialFunction(base, g) for g in listed)
        got = assert_certificates_agree(base, elements, abstract)
        not_closed += str(got).startswith("NotClosedError: ")
    return not_closed


def check_algebras(reps, concrete):
    """Every construction passes, every check fails on some perturbed
    copy, and some element list is not closed."""
    checks = set()
    for edit, rep in reps:
        failures = assert_verifier_agrees(rep)
        assert edit or not failures
        checks.update(f.check for f in failures)
    rng = random.Random(11)
    not_closed = sum(assert_closures_agree(conc, rng) for conc in concrete)
    assert checks == set(FAILURE_CHECKS) and not_closed


def test_mask_paths_match_the_set_paths_on_fixtures_and_small_models(
    representations, f1, f2, f3, f4
):
    check_algebras(representations["small"], [f1, f2, f3, f4])


def test_mask_paths_match_the_set_paths_on_acceptance_corpus(representations, corpus200):
    check_algebras(representations["corpus"], corpus200)


def test_mask_paths_match_the_set_paths_on_the_large_algebras(representations, large_concrete):
    """The two algebras of the benchmark's ``large`` workload at seed 1."""
    check_algebras(representations["large"], large_concrete)


def test_a_passing_verification_indexes_the_pairs_once(monkeypatch, f0, f1, f2, f3, f4):
    # The verifier indexes the pairs once and walks the products on the
    # masks; no table is derived.
    calls = {"_tables_of": 0, "_pair_masks": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(pfun, "_tables_of")
    counted(pfun, "_pair_masks")
    monkeypatch.setattr(represent, "_pair_masks", pfun._pair_masks)
    for alg in [f0, *(conc.abstract for conc in (f1, f2, f3, f4))]:
        for build in CONSTRUCTIONS:
            rep = build(alg)
            calls.update(dict.fromkeys(calls, 0))
            assert verify_representation(rep).passed
            assert calls == {"_tables_of": 0, "_pair_masks": 1}
