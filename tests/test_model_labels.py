"""The model enumerator's isomorphism label, against ``canonical_form``.

``_label`` deduplicates the enumerator's labelled copies; the catalog is
then sorted by ``canonical_form``, once per class.  The label is exact
when it partitions algebras as ``canonical_form`` does: equal labels
exactly for equal forms.  That is checked on every labelled copy the
enumerator completes at sizes up to 5 (size 6 is the slow sweep in
``test_algebra.py``) and on seeded relabelings of each model, including
ones that move zero off id 0.
"""

import inspect
import random

import pytest

from diffrest import FiniteAlgebra, canonical_form, enumerate_axiom_models
from diffrest import oracle

SIZES = (1, 2, 3, 4, 5)
RELABELINGS = 6


def same_partition(labels, forms) -> bool:
    """Whether ``labels[i] == labels[j]`` exactly when ``forms[i] == forms[j]``."""
    pairs = set(zip(labels, forms))
    return len(pairs) == len(set(labels)) == len(set(forms))


def relabel(alg, sigma):
    """The tables of ``alg`` with element ``a`` renamed ``sigma[a]``."""
    inv = sorted(range(alg.size), key=sigma.__getitem__)
    minus = [[sigma[alg.minus[x][y]] for y in inv] for x in inv]
    restrict = [[sigma[alg.restrict[x][y]] for y in inv] for x in inv]
    return FiniteAlgebra.from_tables(minus, restrict)


def labelled_copies(monkeypatch, n):
    """The catalog of size ``n`` and every labelled copy its search completed."""
    copies = []
    label = oracle._label
    monkeypatch.setattr(oracle, "_label", lambda alg: copies.append(alg) or label(alg))
    catalog = enumerate_axiom_models(n)
    monkeypatch.setattr(oracle, "_label", label)
    return catalog, copies


def relabelings(models, seed):
    """Seeded shuffles of each model's ids; the first moves zero to the last id."""
    rng = random.Random(seed)
    out = []
    for alg in models:
        sigma = list(range(alg.size))
        sigma[0], sigma[-1] = sigma[-1], sigma[0]
        out.append(relabel(alg, sigma))
        for _ in range(RELABELINGS):
            rng.shuffle(sigma)
            out.append(relabel(alg, sigma))
    return out


@pytest.fixture(scope="module")
def corpus():
    """Every labelled copy at sizes up to 5, then relabelings of the models."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        found = [labelled_copies(monkeypatch, n) for n in SIZES]
    copies = [alg for _, algs in found for alg in algs]
    models = [alg for catalog, _ in found for alg in catalog.models]
    return copies + models + relabelings(models, seed=20)


def test_enumerator_labels_every_completed_copy(monkeypatch):
    counts = [len(labelled_copies(monkeypatch, n)[1]) for n in SIZES]
    assert counts == [1, 1, 2, 8, 51]


def test_label_partitions_like_canonical_form(corpus):
    assert any(alg.zero != 0 for alg in corpus)
    forms = [canonical_form(alg) for alg in corpus]
    assert len(set(forms)) == 1 + 1 + 2 + 4 + 7
    assert same_partition([oracle._label(alg) for alg in corpus], forms)


def cell_sizes(alg) -> list[int]:
    label = oracle._label(alg)
    return list(label[: len(label) - 2 * alg.size**2])


def test_label_starts_with_the_cell_sizes(corpus):
    for alg in corpus:
        sizes = cell_sizes(alg)
        assert sizes[0] == 1 and sum(sizes) == alg.size


def test_restrict_invariants_split_cells():
    # The label tries the product of the cells' factorials.  The minus
    # invariants alone give the second model [1, 1, 1, 2] and the fourth
    # and fifth [1, 4].
    sizes = [cell_sizes(alg) for alg in enumerate_axiom_models(5).models]
    assert sizes == [[1, 1, 1, 2], [1, 1, 1, 1, 1], [1, 4], [1, 2, 2], [1, 1, 3], [1, 4], [1, 4]]


def mutant_label(old: str, new: str):
    """``_label`` compiled from its source with ``old`` replaced by ``new``."""
    source = inspect.getsource(oracle._label)
    assert source.count(old) == 1
    namespace = dict(vars(oracle))
    exec(source.replace(old, new), namespace)
    return namespace["_label"]


MUTANTS = {
    # F3 and F4 share a minus table
    "minus rows only": ("pick(rows[0]) + pick(rows[1])", "pick(rows[0])"),
    # cells in the order of their least element id
    "cells by least id": ("sorted(cells)", "cells"),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_comparison_catches_label_mutants(mutant, corpus):
    label = mutant_label(*MUTANTS[mutant])
    forms = [canonical_form(alg) for alg in corpus]
    assert not same_partition([label(alg) for alg in corpus], forms)


def test_canonical_form_runs_once_per_class(monkeypatch):
    calls = []
    form = oracle.canonical_form
    monkeypatch.setattr(oracle, "canonical_form", lambda alg: calls.append(alg) or form(alg))
    for n in SIZES:
        calls.clear()
        catalog = enumerate_axiom_models(n)
        assert len(calls) == len(catalog.models)
