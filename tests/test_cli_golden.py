"""Golden digests of the command line's output.

Each (input, argv) pair runs in-process through ``diffrest.cli.main``;
its exit code, stdout and stderr hash to one sha256 digest, and the
digests must equal those recorded in ``cli_golden.json``.  A change
that alters any verdict line, witness or structured field, on any of
these inputs, fails here.  Regenerate the file only for an intended
change of output: ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import hashlib
import io
import json
import os
import sys
from pathlib import Path

from conftest import law_models, make_f0, make_f1, make_f2, make_f3, make_f4, make_n1

from diffrest import serialize_algebra, serialize_concrete
from diffrest.cli import MODES, main

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("text", "structured")


def golden_inputs() -> dict[str, str]:
    """File name -> text: F0-F4, N1, and the models of sizes 1 to 5."""
    inputs = {"F0.alg": serialize_algebra(make_f0())}
    for name, make in (("F1", make_f1), ("F2", make_f2), ("F3", make_f3), ("F4", make_f4)):
        inputs[f"{name}.alg"] = serialize_concrete(make())
    inputs["N1.alg"] = serialize_algebra(make_n1()[0])
    for n in range(1, 6):
        for i, model in enumerate(law_models(n)):
            inputs[f"model{n}_{i}.alg"] = serialize_algebra(model)
    return inputs


def golden_argvs(name: str) -> list[list[str]]:
    argvs = []
    for fmt in FORMATS:
        for verb in ("check", "laws", "filters", "quotient"):
            argvs.append([verb, name, "--format", fmt])
        for verb in ("represent", "complete"):
            for mode in MODES:
                argvs.append([verb, "--mode", mode, name, "--format", fmt])
    return argvs


def run_digest(argv, capsys) -> str:
    code = main(argv)
    out, err = capsys.readouterr()
    record = json.dumps([code, out, err])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def digests(directory: Path, capsys) -> dict[str, str]:
    """Write the inputs to ``directory`` and digest every run on them.

    The runs use relative file names from inside ``directory``, so that
    no message can carry a temporary path."""
    inputs = golden_inputs()
    for name, text in inputs.items():
        (directory / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return {
            " ".join(argv): run_digest(argv, capsys)
            for name in inputs
            for argv in golden_argvs(name)
        }
    finally:
        os.chdir(cwd)


def test_cli_output_matches_the_golden_digests(tmp_path, capsys):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(tmp_path, capsys)
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert changed == []


class _Capture:
    """The ``readouterr`` of pytest's ``capsys``, for a run outside pytest."""

    def readouterr(self):
        result = (sys.stdout.getvalue(), sys.stderr.getvalue())
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        return result


if __name__ == "__main__":
    import tempfile

    real = sys.stdout, sys.stderr
    with tempfile.TemporaryDirectory() as scratch:
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        try:
            table = digests(Path(scratch), _Capture())
        finally:
            sys.stdout, sys.stderr = real
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}")
