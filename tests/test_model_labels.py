"""The isomorphism label, against brute-force forms.

``_label`` keys the enumerator's complete minus tables by ``(minus,)``,
so that the restrict stage runs once per class, and deduplicates its
labelled models by ``(minus, restrict)``.  That model label is the
public ``canonical_form``, and catalogs list their classes in its
ascending order.  The label is exact when it partitions its inputs as
a brute-force form from ``lemmas`` does: equal labels exactly for
equal forms, ``reference_canonical_form`` for models and
``minus_form`` for minus tables.  That is checked on every labelled
model and every complete minus table the enumerator reaches at sizes
up to 5 (size 6 is the slow sweep in ``test_algebra.py``) and on seeded
relabelings of them, including ones that move zero off id 0.
"""

import inspect
import random

import pytest

from diffrest import canonical_form, enumerate_axiom_models
from diffrest import oracle
from lemmas import labelled_copies, minus_form, reference_canonical_form, relabel, relabel_table

SIZES = (1, 2, 3, 4, 5)
RELABELINGS = 6


def same_partition(labels, forms) -> bool:
    """Whether ``labels[i] == labels[j]`` exactly when ``forms[i] == forms[j]``."""
    pairs = set(zip(labels, forms))
    return len(pairs) == len(set(labels)) == len(set(forms))


def shuffles(rng, n):
    """Relabelings of ids 0..n-1: the first moves zero, id 0, to the last
    id, then seeded shuffles."""
    sigma = list(range(n))
    sigma[0], sigma[-1] = sigma[-1], sigma[0]
    out = [sigma[:]]
    for _ in range(RELABELINGS):
        rng.shuffle(sigma)
        out.append(sigma[:])
    return out


def model_label(alg) -> bytes:
    return oracle._label(alg.zero, (alg.minus, alg.restrict))


@pytest.fixture(scope="module")
def found():
    """Per size up to 5: the catalog, its labelled models and its labelled
    minus tables."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return [labelled_copies(monkeypatch, n) for n in SIZES]


@pytest.fixture(scope="module")
def corpus(found):
    """Every labelled model at sizes up to 5, then relabelings of the
    catalogs' models."""
    rng = random.Random(20)
    copies = [alg for _, algs, _ in found for alg in algs]
    models = [alg for catalog, _, _ in found for alg in catalog.models]
    relabeled = [relabel(alg, sigma) for alg in models for sigma in shuffles(rng, alg.size)]
    return copies + models + relabeled


@pytest.fixture(scope="module")
def minus_corpus(found):
    """Every labelled minus table at sizes up to 5, then relabelings of
    them, each with its zero."""
    rng = random.Random(21)
    tables = [minus for _, _, minus_tables in found for minus in minus_tables]
    relabeled = [
        (sigma[0], relabel_table(minus, sigma))
        for minus in tables
        for sigma in shuffles(rng, len(minus))
    ]
    return [(0, minus) for minus in tables] + relabeled


def test_enumerator_labels_every_completed_copy(found):
    assert [len(models) for _, models, _ in found] == [1, 1, 2, 6, 18]
    assert [len(tables) for _, _, tables in found] == [1, 1, 1, 4, 13]


def test_label_partitions_like_canonical_form(corpus):
    assert any(alg.zero != 0 for alg in corpus)
    forms = [reference_canonical_form(alg) for alg in corpus]
    assert len(set(forms)) == 1 + 1 + 2 + 4 + 7
    assert same_partition([model_label(alg) for alg in corpus], forms)


def test_minus_label_partitions_like_minus_form(minus_corpus):
    assert any(zero != 0 for zero, _ in minus_corpus)
    forms = [minus_form(zero, minus) for zero, minus in minus_corpus]
    assert len(set(forms)) == 1 + 1 + 1 + 2 + 2
    labels = [oracle._label(zero, (minus,)) for zero, minus in minus_corpus]
    assert same_partition(labels, forms)


def cell_sizes(alg) -> list[int]:
    label = model_label(alg)
    return list(label[: len(label) - 2 * alg.size**2])


def test_label_starts_with_the_cell_sizes(corpus):
    for alg in corpus:
        sizes = cell_sizes(alg)
        assert sizes[0] == 1 and sum(sizes) == alg.size


def test_restrict_invariants_split_cells():
    # The label tries the product of the cells' factorials.  The minus
    # invariants alone give the first model [1, 1, 1, 2] and the third
    # and fourth [1, 4].
    sizes = [cell_sizes(alg) for alg in enumerate_axiom_models(5).models]
    assert sizes == [[1, 1, 1, 1, 1], [1, 1, 1, 2], [1, 1, 3], [1, 2, 2], [1, 4], [1, 4], [1, 4]]


def mutant_label(old: str, new: str):
    """``_label`` compiled from its source with ``old`` replaced by ``new``."""
    source = inspect.getsource(oracle._label)
    assert source.count(old) == 1
    namespace = dict(vars(oracle))
    exec(source.replace(old, new), namespace)
    return namespace["_label"]


MUTANTS = {
    # F3 and F4 share a minus table
    "minus rows only": ("for table in rows", "for table in rows[:1]"),
    # cells in the order of their least element id
    "cells by least id": ("sorted(cells)", "cells"),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_comparison_catches_label_mutants(mutant, corpus):
    label = mutant_label(*MUTANTS[mutant])
    forms = [reference_canonical_form(alg) for alg in corpus]
    labels = [label(alg.zero, (alg.minus, alg.restrict)) for alg in corpus]
    assert not same_partition(labels, forms)


def test_catalogs_ascend_in_canonical_form(found):
    for catalog, _, _ in found:
        forms = [canonical_form(alg) for alg in catalog.models]
        assert forms == sorted(set(forms))
