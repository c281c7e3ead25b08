"""The isomorphism label, against brute-force forms.

``_label`` deduplicates the enumerator's models by ``(minus,
restrict)``.  That model label is the public ``canonical_form``, and
catalogs list their classes in its ascending order.  The label is
exact when it partitions its inputs as a brute-force form from
``lemmas`` does: equal labels exactly for equal forms,
``reference_canonical_form`` for models and ``minus_form`` for minus
tables alone.  That is checked at sizes up to 5 (size 6 is the slow
sweep in ``test_algebra.py``) on every complete minus table, relabeled
with 0 fixed from the one per class that the enumerator's symmetry cut
reaches, on seeded relabelings fixing 0 of each catalog model (the
search itself labels each model class once), and on seeded relabelings
of both, including ones that move zero off id 0.
"""
import itertools
import random

import pytest

from conftest import source_mutant

from diffrest import canonical_form, enumerate_axiom_models
from diffrest import oracle
from lemmas import labelled_copies, minus_form, reference_canonical_form, relabel, relabel_table
from lemmas import zero_fixing_copies

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
def label_corpus(found):
    """The catalogs' models at sizes up to 5 and their distinct seeded
    relabelings fixing 0, then relabelings of the models."""
    rng = random.Random(20)
    models = [alg for catalog, _, _ in found for alg in catalog.models]
    relabeled = [relabel(alg, sigma) for alg in models for sigma in shuffles(rng, alg.size)]
    return zero_fixing_copies(models) + relabeled


@pytest.fixture(scope="module")
def minus_corpus(found):
    """Every complete minus table at sizes up to 5: each relabeling fixing
    0 of each table the enumerator reached.  Then relabelings of them,
    each with its zero."""
    rng = random.Random(21)
    copies = {
        tuple(map(tuple, relabel_table(minus, (0, *sigma)))): None
        for _, _, minus_tables in found
        for minus in minus_tables
        for sigma in itertools.permutations(range(1, len(minus)))
    }
    tables = [list(map(list, minus)) for minus in copies]
    relabeled = [
        (sigma[0], relabel_table(minus, sigma))
        for minus in tables
        for sigma in shuffles(rng, len(minus))
    ]
    return [(0, minus) for minus in tables] + relabeled


def test_enumerator_labels_every_completed_copy(found):
    # one labelled model per class: the catalog's, in search order
    assert [len(models) for _, models, _ in found] == [1, 1, 2, 4, 7]
    for catalog, models, _ in found:
        assert sorted(map(model_label, models)) == list(map(model_label, catalog.models))
    # one complete minus table per class
    assert [len(tables) for _, _, tables in found] == [1, 1, 1, 2, 2]
    for _, _, tables in found:
        assert len({minus_form(0, minus) for minus in tables}) == len(tables)


def test_label_partitions_like_canonical_form(label_corpus):
    assert any(alg.zero != 0 for alg in label_corpus)
    # every relabeling fixing 0 of each model: 1 + 1 + 2 + 8 + 51 tables
    assert len({(alg.minus, alg.restrict) for alg in label_corpus if alg.zero == 0}) >= 63
    forms = [reference_canonical_form(alg) for alg in label_corpus]
    assert len(set(forms)) == 1 + 1 + 2 + 4 + 7
    assert same_partition([model_label(alg) for alg in label_corpus], forms)


def test_minus_label_partitions_like_minus_form(minus_corpus):
    assert any(zero != 0 for zero, _ in minus_corpus)
    # every complete minus table with bottom 0
    tables = {tuple(map(tuple, minus)) for zero, minus in minus_corpus if zero == 0}
    assert len(tables) == 1 + 1 + 1 + 4 + 13
    forms = [minus_form(zero, minus) for zero, minus in minus_corpus]
    assert len(set(forms)) == 1 + 1 + 1 + 2 + 2
    labels = [oracle._label(zero, (minus,)) for zero, minus in minus_corpus]
    assert same_partition(labels, forms)


def cell_sizes(alg) -> list[int]:
    label = model_label(alg)
    return list(label[: len(label) - 2 * alg.size**2])


def test_label_starts_with_the_cell_sizes(label_corpus):
    for alg in label_corpus:
        sizes = cell_sizes(alg)
        assert sizes[0] == 1 and sum(sizes) == alg.size


def test_restrict_invariants_split_cells():
    # The label tries the product of the cells' factorials.  The minus
    # invariants alone give the first model [1, 1, 1, 2] and the third
    # and fourth [1, 4].
    sizes = [cell_sizes(alg) for alg in enumerate_axiom_models(5).models]
    assert sizes == [[1, 1, 1, 1, 1], [1, 1, 1, 2], [1, 1, 3], [1, 2, 2], [1, 4], [1, 4], [1, 4]]


MUTANTS = {
    # F3 and F4 share a minus table
    "minus rows only": ("for table in rows", "for table in rows[:1]"),
    # cells in the order of their least element id
    "cells by least id": ("sorted(cells)", "cells"),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_comparison_catches_label_mutants(mutant, label_corpus):
    label = source_mutant(oracle, ("_label",), *MUTANTS[mutant])
    forms = [reference_canonical_form(alg) for alg in label_corpus]
    labels = [label(alg.zero, (alg.minus, alg.restrict)) for alg in label_corpus]
    assert not same_partition(labels, forms)


def test_catalogs_ascend_in_canonical_form(found):
    for catalog, _, _ in found:
        forms = [canonical_form(alg) for alg in catalog.models]
        assert forms == sorted(set(forms))
