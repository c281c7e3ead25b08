"""End-to-end command-line behaviour, including exit codes and stability."""

import subprocess
import sys

import pytest

from conftest import MALFORMED_DICTIONARIES, make_f0, make_f2, make_n1

from diffrest import (
    ConcreteAlgebra,
    boolean_as_diffrest,
    parse_algebras,
    serialize_algebra,
    serialize_concrete,
)


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "diffrest", *argv],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("algebras")
    f2 = root / "F2.alg"
    f2.write_text(serialize_concrete(make_f2()))
    n1 = root / "N1.alg"
    n1.write_text(serialize_algebra(make_n1()[0]))
    f0 = root / "F0.alg"
    f0.write_text(serialize_algebra(make_f0()))
    corpus = root / "corpus.alg"
    corpus.write_text(
        serialize_algebra(make_f2().abstract)
        + serialize_algebra(make_n1()[0])
        + serialize_algebra(make_f0())
    )
    return {"f2": str(f2), "n1": str(n1), "f0": str(f0), "corpus": str(corpus), "root": root}


def test_check_passing_algebra(files):
    result = run_cli("check", files["f2"])
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS Ax.") for line in lines)


def test_check_failing_algebra_cites_witness(files):
    result = run_cli("check", files["n1"])
    assert result.returncode == 1
    assert "FAIL Ax.5 witness a=c b=d" in result.stdout


def test_laws_refuses_non_model(files):
    result = run_cli("laws", files["n1"])
    assert result.returncode == 1
    assert "FAIL Ax.5" in result.stdout


def test_represent_theta_on_trivial_algebra(files):
    result = run_cli("represent", "--mode", "theta", files["f0"])
    assert result.returncode == 0
    assert "STATE" not in result.stdout
    assert "PASS verification" in result.stdout


def test_represent_emit_concrete_roundtrips(files, tmp_path):
    out = tmp_path / "image.alg"
    result = run_cli(
        "represent", "--mode", "theta", files["f2"], "--emit-concrete", str(out)
    )
    assert result.returncode == 0
    doc = parse_algebras(out.read_text())[0]
    assert isinstance(doc, ConcreteAlgebra)
    assert doc.abstract == make_f2().abstract


def test_structured_output_is_stable(files):
    first = run_cli("check", files["f2"], "--format", "structured")
    second = run_cli("check", files["f2"], "--format", "structured")
    assert first.stdout == second.stdout
    assert "PASS law=Ax.1" in first.stdout

    a = run_cli("represent", "--mode", "eta", files["f2"], "--format", "structured")
    b = run_cli("represent", "--mode", "eta", files["f2"], "--format", "structured")
    assert a.stdout == b.stdout


def test_verdict_lines_carry_fixed_tokens(files):
    result = run_cli("diff", files["corpus"], "--max-base", "3")
    for line in result.stdout.strip().splitlines():
        assert line.split()[0] in {"PASS", "FAIL", "INCONCLUSIVE"}
    assert result.returncode == 0


def test_search_embed_found(files):
    result = run_cli("search", "embed", "--file", files["f2"], "--max-base", "2")
    assert result.returncode == 0
    assert "verdict=found" in result.stdout


def test_search_embed_none(files):
    result = run_cli("search", "embed", "--file", files["n1"], "--max-base", "3")
    assert result.returncode == 1
    assert "verdict=none" in result.stdout


def test_search_embed_inconclusive_exit_code(files):
    result = run_cli(
        "search", "embed", "--file", files["f2"], "--max-base", "2",
        "--node-limit", "1",
    )
    assert result.returncode == 3
    assert result.stdout.startswith("INCONCLUSIVE")


def test_search_models(files):
    result = run_cli("search", "models", "--size", "2")
    assert result.returncode == 0
    assert "count=1" in result.stdout


def test_filters_and_quotient(files):
    result = run_cli("filters", files["f2"])
    assert result.returncode == 0
    assert "FILTER {k, h} class=0 maximal" in result.stdout
    assert "COVER" in result.stdout

    result = run_cli("quotient", files["f2"])
    assert result.returncode == 0
    assert "CLASS 0 rep=k" in result.stdout


def test_complete_verb(files):
    result = run_cli("complete", "--mode", "atomic-theta", files["f2"])
    assert result.returncode == 0
    assert result.stdout.startswith("PASS completeness")
    assert "meet=yes join=yes atomic=yes" in result.stdout


def test_interp_boolean(files, tmp_path):
    out = tmp_path / "powerset.alg"
    result = run_cli(
        "interp-boolean", "--universe", "2", "--emit-concrete", str(out)
    )
    assert result.returncode == 0
    assert "PASS interp-boolean universe=2 elements=4" in result.stdout
    assert parse_algebras(out.read_text())[0].abstract.size == 4


def test_parse_error_exit_code(files, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("size x\n")
    result = run_cli("check", str(bad))
    assert result.returncode == 2
    assert "line 1" in result.stderr


def test_dictionary_not_closed_is_an_input_error(tmp_path):
    bad = tmp_path / "open.alg"
    text = serialize_concrete(boolean_as_diffrest(2))
    bad.write_text(text.replace("\n3 {2->2}", "\n3 {1->2}"))
    result = run_cli("check", str(bad))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "ERROR elements are not closed: minus(2, 1) = {2->2} is not an element\n"
    )


@pytest.mark.parametrize("message", MALFORMED_DICTIONARIES)
def test_malformed_dictionary_is_an_input_error(tmp_path, message):
    bad = tmp_path / "bad.alg"
    bad.write_text(MALFORMED_DICTIONARIES[message])
    result = run_cli("check", str(bad))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"ERROR {message}\n"


def test_missing_file_exit_code():
    result = run_cli("check", "/nonexistent/alg")
    assert result.returncode == 2


def test_unknown_flag_rejected(files):
    result = run_cli("check", files["f2"], "--bogus")
    assert result.returncode == 2


def test_seed_env_variable_is_the_default(files):
    import os

    env = dict(os.environ, DIFFREST_SEED="17")
    result = run_cli(
        "search", "embed", "--file", files["f2"], "--max-base", "2", env=env
    )
    assert result.returncode == 0
    assert "seed=17" in result.stdout


def test_malformed_seed_env_variable_is_an_input_error(files):
    import os

    env = dict(os.environ, DIFFREST_SEED="abc")
    result = run_cli(
        "search", "embed", "--file", files["f2"], "--max-base", "2", env=env
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("ERROR DIFFREST_SEED")


@pytest.mark.parametrize("size", ("0", "-3"))
def test_model_search_below_size_one_is_an_input_error(size):
    result = run_cli("search", "models", "--size", size)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("ERROR ")
