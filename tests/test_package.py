"""Packaging guarantees of the library itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffrest
from diffrest import (
    AlgebraError,
    SearchBudget,
    boolean_as_diffrest,
    check_axioms,
    enumerate_filters,
    principal_filter,
)

PACKAGE = Path(diffrest.__file__).parent


def test_library_imports_only_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "diffrest", (path.name, name)


def test_importing_the_library_loads_no_dataclass_machinery():
    # A fresh interpreter: this one has long imported both modules.
    layers = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))
    code = (
        "import sys, diffrest\n"
        + "".join(f"import diffrest.{layer}\n" for layer in layers)
        + "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _twins():
    """Per type: a value, an equal value built apart, one of its fields,
    and a value of that field the constructor refuses (None where the
    constructor checks nothing)."""
    a, b = boolean_as_diffrest(2), boolean_as_diffrest(2)
    return {
        "FiniteAlgebra": (a.abstract, b.abstract, "zero", 3),
        "PartialFunction": (a.elements[1], b.elements[1], "graph", {(1, 1), (1, 2)}),
        "ConcreteAlgebra": (a, b, "elements", a.elements[::-1]),
        "Filter": (principal_filter(a.abstract, 1), principal_filter(b.abstract, 1), "members", 0),
        "FilterFamily": (
            enumerate_filters(a.abstract), enumerate_filters(b.abstract), "domhat", None
        ),
        "SearchBudget": (SearchBudget(2), SearchBudget(max_base_size=2), "node_limit", 0),
        "AxiomReport": (check_axioms(a.abstract), check_axioms(b.abstract), "verdicts", None),
    }


@pytest.mark.parametrize("kind", list(_twins()))
def test_values_are_immutable_and_compare_by_their_fields(kind):
    value, twin, field, refused = _twins()[kind]
    assert value is not twin
    assert value == twin and hash(value) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.note = "an attribute that is not a field"
    if refused is not None:  # _replace runs the constructor's checks
        with pytest.raises(AlgebraError):
            value._replace(**{field: refused})
