"""The perturbed families of the differential corpus (conftest), pinned.

Each family's copy count and a SHA-256 of its copies, in order: the
tables of a perturbed algebra, and the edit, states and values of a
perturbed representation.  A change to a perturber, a seed or a source
fails here, by family name, instead of quietly moving the thresholds of
the tests that read the family.
"""

import hashlib

import pytest

# family: (copies, sha256 of repr() of the copies)
PINNED_FAMILIES = {
    "perturbed_small": (265, "627522e12973a3e67f18550d0ebc98aa65b08cfba93522a4a5d9a410cef72d6a"),
    "perturbed_corpus": (145, "cb36c7a26aca4f3e59c67a64d581c1a3789bfc1bf7e5246eb15bfb214e8a49e1"),
    "perturbed_quotients": (
        542, "ee2aeb6a19affcce3d46215f87e22f63604fe45524917016712f3365c56bc7a0"
    ),
    "perturbed_large": (40, "d95d2e26f355c52b758e45087126d8924a2f30a39475c5881d8568d671a0e355"),
    "perturbed_powersets": (
        1600, "293d8a7704299ad9c3ac5e907d49b29287853a426573097c7d152bdbe0fdfdfb"
    ),
    "perturbed_powerset_minus": (
        2115, "4c6dbf1021393d0e76d90a54e26d74337791b60c866dd2316ec247f20d9d6b2d"
    ),
    "perturbed_restrict": (
        190, "99fa06d468fc1f20930c245ccb8b5ca8e6339dcecb3abf0a4c04c73171531965"
    ),
    "representations/small": (
        643, "0d1cecfaa8b0bc5e8f92083385582328e1c90c36ff08c0a0172416f9ea7281e3"
    ),
    "representations/corpus": (
        5856, "fb28b1475383defdfdc50ae9531042728b1c560a4a788206864934a8bd459fb7"
    ),
    "representations/large": (
        79, "5013300f4454096a09eb5de2035d71fe7c3accd862533783f7517bb3dc4c5a1d"
    ),
}


@pytest.mark.parametrize("family", PINNED_FAMILIES)
def test_perturbed_families_are_pinned(family, request):
    name, _, key = family.partition("/")
    copies = request.getfixturevalue(name)
    if key:
        copies = [
            (edit, rep.states, [(sorted(f.base), sorted(f.graph)) for f in rep.assignment])
            for edit, rep in copies[key]
        ]
    else:
        copies = [(alg.minus, alg.restrict) for alg in copies]
    found = len(copies), hashlib.sha256(repr(copies).encode()).hexdigest()
    assert found == PINNED_FAMILIES[family]
