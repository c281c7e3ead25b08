"""End-to-end command-line behaviour, including exit codes and stability."""

import io
import os
import time
import tracemalloc

import pytest

from conftest import MALFORMED_EDITS, malformed_dictionary, run_cli

from diffrest import (
    BudgetExceededError,
    ConcreteAlgebra,
    boolean_as_diffrest,
    enumerate_axiom_models,
    enumerate_filters,
    parse_algebras,
    serialize_algebra,
    serialize_concrete,
)
from diffrest.cli import main
from lemmas import domhat_pair


def run_with_closed_stdout(*argv):
    """Run the CLI with stdout a pipe whose reader has already gone, and
    stdout buffered, as in a shell pipeline."""
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        return run_cli(*argv, stdout=write, env=env)
    finally:
        os.close(write)


@pytest.fixture(scope="module")
def files(tmp_path_factory, f0, f2, n1):
    root = tmp_path_factory.mktemp("algebras")
    texts = {"F2": serialize_concrete(f2), "N1": serialize_algebra(n1[0])}
    texts["F0"] = serialize_algebra(f0)
    texts["corpus"] = serialize_algebra(f2.abstract) + texts["N1"] + texts["F0"]
    for name, text in texts.items():
        (root / f"{name}.alg").write_text(text)
    return {name.lower(): str(root / f"{name}.alg") for name in texts}


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


def test_represent_emit_concrete_roundtrips(files, tmp_path, f2):
    out = tmp_path / "image.alg"
    result = run_cli(
        "represent", "--mode", "theta", files["f2"], "--emit-concrete", str(out)
    )
    assert result.returncode == 0
    doc = parse_algebras(out.read_text())[0]
    assert isinstance(doc, ConcreteAlgebra)
    assert doc.abstract == f2.abstract


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


def test_complete_with_a_cap_above_the_size_is_exact(tmp_path, capsys, corpus200):
    # Scanning 2**32 subsets under --cap 40 did not finish in 20 s.
    conc = corpus200[52]
    assert conc.abstract.size == 32
    path = tmp_path / "corpus52.alg"
    path.write_text(serialize_concrete(conc))
    assert main(["complete", "--mode", "theta", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS completeness meet=yes join=yes atomic=yes subsets=")
    assert out.endswith(" subsets=270\n")


def test_cap_and_seed_are_usage_errors(files, capsys):
    path = files["f2"]
    argvs = [
        [verb, "--mode", "theta", path, flag]
        for verb in ("represent", "complete")
        for flag in ("--cap", "--seed")
    ]
    argvs += [
        ["search", "models", "--size", "2", "--seed"],
        ["search", "embed", "--file", path, "--max-base", "2", "--seed"],
        ["diff", path, "--seed"],
    ]
    for argv in argvs:
        with pytest.raises(SystemExit) as caught:
            main([*argv, "12"])
        assert caught.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {argv[-1]} 12" in err


def test_search_format_is_a_usage_error(files, capsys):
    # The searches print no payload that a format could switch.
    for argv in (
        ["search", "models", "--size", "2"],
        ["search", "embed", "--file", files["f2"], "--max-base", "2"],
    ):
        for fmt in ("text", "structured"):
            with pytest.raises(SystemExit) as caught:
                main([*argv, "--format", fmt])
            assert caught.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"unrecognized arguments: --format {fmt}" in err


def test_diff_format_is_a_usage_error(files, capsys):
    # diff's lines are key=value already, so a format has nothing to switch.
    for fmt in ("text", "structured"):
        with pytest.raises(SystemExit) as caught:
            main(["diff", files["f2"], "--format", fmt])
        assert caught.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: --format {fmt}" in err


@pytest.mark.parametrize(
    "verb",
    [
        ["check"],
        ["laws"],
        ["filters"],
        ["quotient"],
        ["represent", "--mode", "theta"],
        ["complete", "--mode", "theta"],
        ["search", "embed", "--max-base", "2", "--file"],
    ],
    ids=lambda verb: verb[0] if verb[0] != "search" else "search-embed",
)
def test_single_algebra_verbs_refuse_a_file_of_two(tmp_path, capsys, verb, n1):
    # Each used to read the first algebra only: check passed a model
    # followed by N1, which fails Ax.5 on its own.
    path = tmp_path / "two.alg"
    model = boolean_as_diffrest(1).abstract
    path.write_text(serialize_algebra(model) + serialize_algebra(n1[0]))
    assert main([*verb, str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"ERROR {path} holds 2 algebras; this verb reads one\n"
    )
    assert main(["diff", str(path)]) == 0
    assert "algebras=2 agree=2" in capsys.readouterr().out


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


def test_filters_covers_match_the_pairwise_preorder(small, n1, tmp_path, capsys):
    algebras = [alg for alg in small if alg is not n1[0]] + [boolean_as_diffrest(4).abstract]
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


@pytest.mark.parametrize("message", MALFORMED_EDITS)
def test_malformed_dictionary_is_an_input_error(tmp_path, message):
    bad = tmp_path / "bad.alg"
    bad.write_text(malformed_dictionary(message))
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


def assert_seed_env_variable_is_ignored(files, value):
    argv = ("search", "embed", "--file", files["f2"], "--max-base", "2")
    unset = {k: v for k, v in os.environ.items() if k != "DIFFREST_SEED"}
    without = run_cli(*argv, env=unset)
    with_seed = run_cli(*argv, env=dict(unset, DIFFREST_SEED=value))
    assert with_seed.returncode == without.returncode == 0
    assert with_seed.stdout == without.stdout
    assert with_seed.stderr == without.stderr == ""


def test_seed_env_variable_is_ignored(files):
    assert_seed_env_variable_is_ignored(files, "17")


def test_malformed_seed_env_variable_is_ignored(files):
    assert_seed_env_variable_is_ignored(files, "abc")


LIMITS_POSITIVE = "budget limits must be positive"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "models", "--size", "2", "--node-limit", "0"], LIMITS_POSITIVE),
        (["search", "embed", "--max-base", "2", "--node-limit", "-5"], LIMITS_POSITIVE),
        (["search", "embed", "--max-base", "-1"], "max_base_size must be nonnegative"),
    ],
)
def test_bad_search_budget_is_an_input_error(files, argv, message, capsys):
    if argv[1] == "embed":
        argv = [*argv, "--file", files["f2"]]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"ERROR {message}\n")


@pytest.mark.parametrize("size", ("0", "-3"))
def test_model_search_below_size_one_is_an_input_error(size):
    result = run_cli("search", "models", "--size", size)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("ERROR ")


@pytest.mark.parametrize("size", (9, 64, 65, 10**6))
def test_model_search_above_the_size_budget_is_refused_at_once(size, capsys):
    # Size 65 ran past 60 s, and 3000 ran out of memory allocating tables.
    # The node limit does not bound time either: 64 ran past 100 s.
    message = f"model search size {size} exceeds the limit 8"
    if size > 64:
        message = f"algebra size {size} exceeds the budget limit 64"
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"^{message}$"):
        enumerate_axiom_models(size)
    assert main(["search", "models", "--size", str(size)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"ERROR {message}\n")


@pytest.mark.parametrize(
    "universe, message",
    [
        ("-1", "universe size must be nonnegative"),
        ("7", "size 128 exceeds the cap of 64 elements"),
        ("16", "size 65536 exceeds the cap of 64 elements"),
        ("40", "size 1099511627776 exceeds the cap of 64 elements"),
    ],
)
def test_interp_boolean_refuses_a_bad_universe_at_once(universe, message, capsys):
    # The powerset was built before the cap applied: 16 ran past 30 s.
    start = time.perf_counter()
    assert main(["interp-boolean", "--universe", universe]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"ERROR {message}\n")


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


def test_huge_search_base_is_an_input_error_in_little_memory(files, capsys):
    argv = ["search", "embed", "--file", files["f2"], "--max-base", "1000000"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr() == ("", "ERROR max_base_size exceeds the cap of 65536 points\n")
    # A found embedding built its base point by point: 117 MB at 10**6 points.
    assert peak < 2**21
