"""End-to-end command-line behaviour, including exit codes and stability."""

import io
import os
import subprocess
import sys
import tracemalloc

import pytest

from conftest import (
    MALFORMED_DICTIONARIES,
    build_corpus,
    make_f0,
    make_f1,
    make_f2,
    make_f3,
    make_f4,
    make_n1,
)

from diffrest import (
    ConcreteAlgebra,
    boolean_as_diffrest,
    domhat_pair,
    enumerate_axiom_models,
    enumerate_filters,
    parse_algebras,
    serialize_algebra,
    serialize_concrete,
)
from diffrest.cli import main


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "diffrest", *argv],
        capture_output=True,
        text=True,
        **kwargs,
    )


def run_with_closed_stdout(*argv):
    """Run the CLI with stdout a pipe whose reader has already gone, and
    stdout buffered, as in a shell pipeline."""
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "diffrest", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write)


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


def test_complete_with_a_cap_above_the_size_is_exact(tmp_path, capsys):
    # Scanning 2**32 subsets under --cap 40 did not finish in 20 s.
    conc = build_corpus()[52]
    assert conc.abstract.size == 32
    path = tmp_path / "corpus52.alg"
    path.write_text(serialize_concrete(conc))
    assert main(["complete", "--mode", "theta", "--cap", "40", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS completeness meet=yes join=yes atomic=yes subsets=")
    assert out.endswith(" exhaustive=yes\n")


def test_seed_is_ignored_by_represent_and_complete(tmp_path, capsys):
    path = tmp_path / "f2.alg"
    path.write_text(serialize_concrete(make_f2()))
    for verb in ("represent", "complete"):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--seed SEED ignored: completeness is exact" in help_text
        for mode in ("theta", "atomic-eta"):
            for fmt in ("text", "structured"):
                argv = [verb, "--mode", mode, "--format", fmt, str(path)]
                assert main(argv) == 0
                plain = capsys.readouterr()
                assert main([*argv, "--seed", "12345"]) == 0
                assert capsys.readouterr() == plain


def reference_cover_lines(alg):
    """The COVER lines, with the class order read from ``domhat_pair`` on
    the first filter of each class."""
    family = enumerate_filters(alg)
    rep_of = {}
    for i, c in enumerate(family.approx_class):
        rep_of.setdefault(c, family.all_filters[i])
    n = family.n_classes
    below = {(c, d) for c in range(n) for d in range(n) if domhat_pair(alg, rep_of[c], rep_of[d])}
    return [
        f"COVER lower=class{c} upper=class{d}"
        for c, d in sorted(below)
        if c != d and not any((c, e) in below and (e, d) in below for e in set(range(n)) - {c, d})
    ]


def test_filters_covers_match_the_pairwise_preorder(tmp_path, capsys):
    algebras = [make_f0(), *(make().abstract for make in (make_f1, make_f2, make_f3, make_f4))]
    algebras += [model for n in range(1, 6) for model in enumerate_axiom_models(n).models]
    algebras.append(boolean_as_diffrest(4).abstract)
    covers = 0
    for i, alg in enumerate(algebras):
        path = tmp_path / f"{i}.alg"
        path.write_text(serialize_algebra(alg))
        assert main(["filters", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        got = [line for line in lines if line.startswith("COVER")]
        assert got == reference_cover_lines(alg), i
        covers += len(got)
    assert covers > 0


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


def test_closed_stdout_after_small_output_exits_quietly(files):
    # The output fits the buffer, so the first write is at exit.
    result = run_with_closed_stdout("represent", "--mode", "theta", files["f2"])
    assert (result.returncode, result.stderr) == (141, "")


def test_closed_stdout_during_large_output_exits_quietly(tmp_path):
    path = tmp_path / "B6.alg"
    path.write_text(serialize_concrete(boolean_as_diffrest(6)))
    assert len(run_cli("filters", str(path)).stdout) > io.DEFAULT_BUFFER_SIZE
    result = run_with_closed_stdout("filters", str(path))
    assert (result.returncode, result.stderr) == (141, "")


def test_huge_base_range_is_an_input_error_in_little_memory(tmp_path, capsys):
    path = tmp_path / "huge.alg"
    path.write_text("size 1\nminus\n0\nrestrict\n0\nbase 1..1000000000\ndictionary\n0 {}\n")
    tracemalloc.start()
    try:
        code = main(["check", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR line 6, column 6: base range")
    # Building the range point by point took 84 MB already at 10**6 points.
    assert peak < 2**21
