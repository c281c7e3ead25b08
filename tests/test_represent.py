"""Representation constructions, verification, and completeness."""

import itertools

import pytest

from conftest import F, G, H, K, M, edited

from diffrest import (
    AxiomFailure,
    FiniteAlgebra,
    InconsistencyError,
    PartialFunction,
    Representation,
    atomic_eta,
    atomic_theta,
    atoms,
    boolean_as_diffrest,
    boolean_downset,
    canonical_theta,
    completeness_report,
    injective_eta,
    is_atomic,
    is_injective_pf,
    principal_filter,
    verify_representation,
)
from diffrest.algebra import mask_of
from diffrest.represent import _build
import lemmas
from lemmas import NonHomomorphismError, is_atomistic, verify_hom_restriction


def test_canonical_theta_f4(f4):
    rep = canonical_theta(f4.abstract)
    assert rep.states == ((F,), (G,))
    assert rep.assignment[F].graph == {(0, 0), (1, 0)}
    assert rep.assignment[G].graph == {(0, 1), (1, 1)}
    assert not is_injective_pf(rep.assignment[F])
    assert verify_representation(rep).passed


def test_canonical_theta_f2(f2):
    rep = canonical_theta(f2.abstract)
    assert rep.assignment[H].graph == {(0, 0), (1, 1)}
    assert rep.assignment[K].graph == {(0, 0)}
    assert verify_representation(rep).passed


def test_canonical_theta_f0(f0):
    rep = canonical_theta(f0)
    assert rep.states == ()
    assert rep.assignment[0].graph == frozenset()
    assert verify_representation(rep).passed


def test_canonical_theta_refuses_non_models(n1):
    alg, _ = n1
    with pytest.raises(AxiomFailure) as err:
        canonical_theta(alg)
    assert not err.value.report.verdict("Ax.5").passed


def test_injective_eta_f4(f4):
    rep = injective_eta(f4.abstract)
    assert rep.states[0] == ("class", 0)
    assert rep.assignment[F].graph == {(0, 1)}
    assert all(is_injective_pf(v) for v in rep.assignment)
    assert verify_representation(rep).passed


def test_injective_eta_f2(f2):
    rep = injective_eta(f2.abstract)
    pairs = sorted(rep.assignment[H].graph)
    assert len(pairs) == 2
    assert pairs[0][0] != pairs[1][0]
    assert verify_representation(rep).passed


def test_injective_eta_f0(f0):
    rep = injective_eta(f0)
    assert rep.assignment[0].graph == frozenset()


def test_atoms_f2(f2):
    alg = f2.abstract
    assert atoms(alg) == (K, M)
    assert is_atomic(alg)
    assert is_atomistic(alg)


def test_atoms_f4_restriction_lemma(f4):
    alg = f4.abstract
    assert atoms(alg) == (F, G)
    assert alg.restrict[F][G] == G
    assert alg.domleq(F, G)


@pytest.mark.parametrize(
    "cell, message",
    [
        ((1, 0, 2), "atom 1 restricts 0 to the non-atom 2"),
        ((0, 1, 1), "atom restriction disagrees with the domain preorder at (1, 0)"),
    ],
)
def test_atoms_rejects_a_restriction_that_breaks_the_atom_lemma(cell, message):
    # One restrict cell of the four-element powerset, whose atoms are 1 and 3.
    alg = edited(boolean_as_diffrest(2).abstract, "restrict", *cell)
    with pytest.raises(InconsistencyError) as caught:
        atoms(alg)
    assert str(caught.value) == message


def test_small_models_are_atomic(f1, f2, f3, f4):
    for conc in (f1, f2, f3, f4):
        assert is_atomic(conc.abstract)


def test_atomic_theta_f4(f4):
    rep = atomic_theta(f4.abstract)
    assert rep.states == (F, G)
    assert rep.assignment[F].graph == {(0, 0), (1, 0)}
    assert verify_representation(rep).passed


def test_atomic_theta_f3(f3):
    rep = atomic_theta(f3.abstract)
    assert rep.assignment[K].graph == {(0, 0)}
    assert rep.assignment[M].graph == {(1, 1)}
    assert verify_representation(rep).passed


def test_atomic_theta_f0(f0):
    rep = atomic_theta(f0)
    assert rep.states == ()
    assert rep.assignment[0].graph == frozenset()


def test_atomic_theta_agrees_with_canonical_theta(f0, f1, f2, f3, f4, corpus200):
    # Atom x stands for the maximal filter above it.
    algebras = [f0] + [conc.abstract for conc in (f1, f2, f3, f4, *corpus200)]
    for alg in algebras:
        canonical = canonical_theta(alg)
        atomic = atomic_theta(alg)
        position = {state: i for i, state in enumerate(canonical.states)}
        to_filter = [position[principal_filter(alg, x).sort_key()] for x in atomic.states]
        assert len(to_filter) == len(canonical.states)
        for a in range(alg.size):
            mapped = {(to_filter[i], to_filter[j]) for i, j in atomic.assignment[a].graph}
            assert mapped == canonical.assignment[a].graph


def test_atomic_eta_is_injective(f2, f3, f4):
    for conc in (f2, f3, f4):
        rep = atomic_eta(conc.abstract)
        assert all(is_injective_pf(v) for v in rep.assignment)
        assert verify_representation(rep).passed


def test_verify_identity_function_representation():
    conc = boolean_as_diffrest(2)
    rep = Representation(
        conc.abstract, "external", tuple(sorted(conc.base)), conc.elements
    )
    assert verify_representation(rep).passed


def test_verify_rejects_corrupted_assignment(f2):
    good = canonical_theta(f2.abstract)
    base = good.assignment[0].base
    corrupted = Representation(
        f2.abstract,
        "external",
        good.states,
        (
            PartialFunction(base, ()),
            PartialFunction(base, ()),
            good.assignment[H],
            good.assignment[3],
        ),
    )
    report = verify_representation(corrupted)
    assert not report.passed
    assert ("injectivity", (K, M)) in [(f.check, f.witness) for f in report.failures]


def test_verify_reports_values_over_different_bases():
    # Every operation is preserved, so only the bases tell the values apart.
    alg = boolean_as_diffrest(1).abstract
    values = (PartialFunction({1}, ()), PartialFunction({1, 2}, [(1, 1)]))
    report = verify_representation(Representation(alg, "external", (1, 2), values))
    assert not report.passed and report.image is None
    assert [(f.check, f.witness) for f in report.failures] == [("base", (0, 1))]


def test_completeness_atomic_theta_f2(f2):
    alg = f2.abstract
    rep = atomic_theta(alg)
    report = completeness_report(rep)
    assert report.fully_complete
    # the join of the two atoms is the top and maps to the union
    assert rep.assignment[H].graph == rep.assignment[K].graph | rep.assignment[M].graph


def test_completeness_theta_f4_full_scan(f4):
    report = completeness_report(canonical_theta(f4.abstract))
    assert report.fully_complete
    assert report.subsets_checked >= 8


def test_completeness_flags_incomplete_maps(f2):
    # drop the top element's pair over state 1: joins break
    good = canonical_theta(f2.abstract)
    base = good.assignment[0].base
    bad_h = PartialFunction(base, {(0, 0)})
    broken = Representation(
        f2.abstract,
        "external",
        good.states,
        (good.assignment[K], good.assignment[M], bad_h, good.assignment[3]),
    )
    report = completeness_report(broken)
    assert not report.join_complete
    assert report.join_witness is not None


def test_meet_join_atomic_agree_on_fixture_representations(f1, f2, f3, f4):
    for conc in (f1, f2, f3, f4):
        for build in (canonical_theta, injective_eta, atomic_theta, atomic_eta):
            report = completeness_report(build(conc.abstract))
            assert report.meet_complete == report.join_complete == report.atomic
            assert report.fully_complete


def test_verify_hom_restriction_identity(f2):
    alg = f2.abstract
    assert verify_hom_restriction(alg, alg, list(range(alg.size)), H)


def test_verify_hom_restriction_via_image(f2):
    alg = f2.abstract
    image = verify_representation(canonical_theta(alg)).image
    assert verify_hom_restriction(alg, image.abstract, list(range(alg.size)), H)


def test_verify_hom_restriction_rejects_non_hom(f2):
    alg = f2.abstract
    with pytest.raises(NonHomomorphismError):
        verify_hom_restriction(alg, alg, [H, M, H, 3], H)


def test_verify_hom_restriction_holds_for_every_small_homomorphism(small, n1):
    algebras = [alg for alg in small if alg.size <= 4 and alg is not n1[0]]
    verdicts = []
    for source, target in itertools.product(algebras, repeat=2):
        for h in itertools.product(range(target.size), repeat=source.size):
            ops = ((source.minus, target.minus), (source.restrict, target.restrict))
            if all(
                h[s[x][y]] == t[h[x]][h[y]]
                for s, t in ops
                for x, y in itertools.product(range(source.size), repeat=2)
            ):
                verdicts += [verify_hom_restriction(source, target, h, a) for a in range(source.size)]
    # A homomorphism preserves the downsets' operations, so none raises.
    assert verdicts == [True] * 2226


def test_verify_hom_restriction_is_false_when_an_image_leaves_the_target_downset(
    f2, monkeypatch
):
    # Give the target the downset of its bottom, so the images of k, m
    # and h lie outside it; the join of two of them is then undefined.
    source = f2.abstract
    target = FiniteAlgebra.from_tables(source.minus, source.restrict)
    monkeypatch.setattr(
        lemmas,
        "boolean_downset",
        lambda alg, a: boolean_downset(alg, alg.zero if alg is target else a),
    )
    assert verify_hom_restriction(source, target, list(range(source.size)), H) is False


def test_functionality_certificate_names_the_two_filters(f2):
    # Two distinct maximal filters that share H, given as one class.
    alg = f2.abstract
    states = ((K, H), (M, H))
    provider = lambda alg: ("filter", states, tuple(map(mask_of, states)), (0, 0))
    expected = r"^equivalent maximal filters \{k, h\} and \{m, h\} share an element but differ$"
    with pytest.raises(InconsistencyError, match=expected):
        _build(alg, "canonical-theta", provider, injective=False)
