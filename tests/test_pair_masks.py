"""Closure, table derivation and the verifier on pair masks, against the
set-based code they replaced.

The ``reference_*`` functions are that code, kept verbatim apart from
their names: graphs are frozensets of pairs, minus is set difference
and restrict filters the pairs of the second graph by the domain of the
first.  ``reference_verify_failures`` is the verifier's loop with one
addition, the base check that now comes before the preservation checks.
Element lists, tables, ``NotClosedError`` texts, ``SizeCapError``s and
verifier failure tuples must all be equal.
"""

import random

from conftest import make_f0, make_f1, make_f2, make_f3, make_f4
from test_embedding_search import relabel_until

from diffrest import (
    PartialFunction,
    Representation,
    atomic_eta,
    atomic_theta,
    boolean_as_diffrest,
    canonical_theta,
    close_generators,
    enumerate_axiom_models,
    injective_eta,
    random_generators,
    verify_representation,
)
from diffrest.algebra import SIZE_CAP, SizeCapError
from diffrest.pfun import NotClosedError, _close_graphs, _tables_for
from diffrest.represent import VerificationFailure

CONSTRUCTIONS = (canonical_theta, injective_eta, atomic_theta, atomic_eta)
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


def outcome(fn, *args):
    """What ``fn`` returns, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (NotClosedError, SizeCapError) as err:
        return type(err).__name__, str(err)


def relation(base, graph):
    """A ``PartialFunction`` value that skips the functionality check,
    as a representation-shaped object from outside may hold."""
    f = object.__new__(PartialFunction)
    object.__setattr__(f, "base", frozenset(base))
    object.__setattr__(f, "graph", frozenset(graph))
    return f


def variants(rep, rng):
    """The perturbations of ``rep``: two values swapped, a pair dropped,
    a value duplicated, a non-functional pair added, a value missing,
    and one value over a larger base, kept or replaced by another."""
    values = list(rep.assignment)
    n = len(values)

    def edited(a, f):
        out = list(values)
        out[a] = f
        return Representation(rep.source, "external", rep.states, tuple(out))

    out = [Representation(rep.source, "external", rep.states, tuple(values[:-1]))]
    a, b = rng.randrange(n), rng.randrange(n)
    swapped = list(values)
    swapped[a], swapped[b] = values[b], values[a]
    out.append(Representation(rep.source, "external", rep.states, tuple(swapped)))
    out.append(edited(b, values[a]))
    base = values[0].base
    wider = base | {max(base, default=0) + 1}
    out.append(edited(a, PartialFunction(wider, values[a].graph)))
    out.append(edited(a, PartialFunction(wider, values[b].graph)))
    filled = [c for c, f in enumerate(values) if f.graph]
    if filled:
        c = rng.choice(filled)
        graph = sorted(values[c].graph)
        x, y = rng.choice(graph)
        out.append(edited(c, PartialFunction(base, set(graph) - {(x, y)})))
        others = sorted(base - {y})
        if others:
            out.append(edited(c, relation(base, {*graph, (x, rng.choice(others))})))
    return out


def assert_verifier_agrees(rep):
    report = verify_representation(rep)
    assert report.failures == reference_verify_failures(rep)
    assert report.passed == (not report.failures)
    if report.passed:
        assert report.image.elements == rep.assignment
        assert report.image.abstract is rep.source
    if len(rep.assignment) == rep.source.size:
        graphs = [f.graph for f in rep.assignment]
        assert outcome(_tables_for, graphs) == outcome(reference_tables_for, graphs)
    return report.failures


def assert_closures_agree(graphs, rng):
    """Closures of a few seed lists drawn from ``graphs``, once without a
    cap and once one element short of the closure; tables of the closed
    list and of the list with one element missing or one added."""
    drawn = rng.sample(graphs, min(3, len(graphs)))
    for seeds in (graphs[:1], graphs[:3], graphs[::-1][:2], drawn):
        closed = reference_close_graphs(seeds)
        assert _close_graphs(seeds) == closed
        short = max(len(closed) - 1, 1)
        assert outcome(_close_graphs, seeds, short) == outcome(reference_close_graphs, seeds, short)
    not_closed = 0
    for listed in (graphs, graphs[:-1], [*graphs, frozenset({(-1, -1)})]):
        got = outcome(_tables_for, listed)
        assert got == outcome(reference_tables_for, listed)
        not_closed += got[0] == "NotClosedError"
    return not_closed


def check_algebras(algebras, concrete):
    """Every check fails somewhere, every construction passes, and some
    element list is not closed."""
    rng = random.Random(11)
    checks = set()
    for alg in algebras:
        for build in CONSTRUCTIONS:
            rep = build(alg)
            assert not assert_verifier_agrees(rep)
            for variant in variants(rep, rng):
                checks.update(f.check for f in assert_verifier_agrees(variant))
    not_closed = sum(
        assert_closures_agree([f.graph for f in conc.elements], rng) for conc in concrete
    )
    assert checks == set(FAILURE_CHECKS) and not_closed


def test_mask_paths_match_the_set_paths_on_fixtures_and_small_models():
    concrete = [make() for make in (make_f1, make_f2, make_f3, make_f4)]
    algebras = [make_f0()] + [conc.abstract for conc in concrete]
    for n in range(1, 6):
        algebras.extend(enumerate_axiom_models(n).models)
    assert len(algebras) == 20
    check_algebras(algebras, concrete)


def test_mask_paths_match_the_set_paths_on_acceptance_corpus(corpus200):
    check_algebras([conc.abstract for conc in corpus200], corpus200)


def test_mask_paths_match_the_set_paths_on_the_large_algebras():
    """The two algebras of the benchmark's ``large`` workload at seed 1."""
    base = range(1, 7)
    closure = close_generators(base, random_generators(random.Random(1), base, 6))
    powerset = boolean_as_diffrest(6)
    large = [powerset.abstract, relabel_until(closure.abstract, 1, 5)]
    check_algebras(large, [powerset, closure])
