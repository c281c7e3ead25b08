"""Run the recorded mutants: small deliberate bugs that named tests must kill.

A mutant is one text edit of the library.  Whether the tests it names
fail on it measures how strong their second opinion is.  For each
mutant the runner copies ``src``, ``tests`` and ``pyproject.toml`` to a
temporary directory, replaces the old text (which must occur exactly
once) with the new, and runs the named tests there with
``python -m pytest``.  The mutant is killed when pytest reports failed
tests (exit code 1).  Before any mutant, the named tests must pass on
the unedited copy, or a broken test would kill everything.

The run exits nonzero if a mutant survives, an edit no longer applies,
or a pytest run ends in anything but passed or failed tests.  It is not
part of Tier-1: each mutant costs one pytest start.  Run it from the
repository root:

    python tests/mutants.py          # every mutant
    python tests/mutants.py NAME...  # the named mutants
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


EMBEDDING_CORPUS = (
    "tests/test_embedding_search.py::test_search_matches_reference_on_acceptance_corpus"
)
MASKS_CORPUS = "tests/test_pair_masks.py::test_mask_paths_match_the_set_paths_on_acceptance_corpus"
MASKS_FIXTURES = (
    "tests/test_pair_masks.py::test_mask_paths_match_the_set_paths_on_fixtures_and_small_models"
)

MUTANTS = (
    Mutant(
        "per_algebra keeps a module-level cache",
        "src/diffrest/algebra.py",
        """    @wraps(fn)
    def cached(alg: FiniteAlgebra, *args):
        key = (fn, *args)
        if key not in alg._memo:
            alg._memo[key] = fn(alg, *args)
        return alg._memo[key]
""",
        """    memo = {}

    @wraps(fn)
    def cached(alg: FiniteAlgebra, *args):
        key = (alg, *args)
        if key not in memo:
            memo[key] = fn(alg, *args)
        return memo[key]
""",
        ("tests/test_algebra.py::test_derived_structure_is_computed_once_and_freed_with_its_algebra",),
    ),
    Mutant(
        "FilterFamily.index_of off by one",
        "src/diffrest/filters.py",
        "return self.parent.up_masks.index(f.members)",
        "return self.parent.up_masks.index(f.members) - 1",
        ("tests/test_filters.py::test_f4_filters_share_a_class",),
    ),
    Mutant(
        "no cap on SearchBudget.max_base_size",
        "src/diffrest/oracle.py",
        """        if max_base_size > BASE_RANGE_CAP:
            raise BudgetExceededError(f"max_base_size exceeds the cap of {BASE_RANGE_CAP} points")
""",
        "",
        ("tests/test_cli.py::test_huge_search_base_is_an_input_error_in_little_memory",),
    ),
    Mutant(
        "table entries checked with isinstance, which admits bools",
        "src/diffrest/algebra.py",
        "if type(v) is not int or not 0 <= v < n:",
        "if not isinstance(v, int) or not 0 <= v < n:",
        ("tests/test_algebra.py::test_table_entry_that_is_not_an_int_rejected",),
    ),
    Mutant(
        "PartialFunction takes points of any type",
        "src/diffrest/pfun.py",
        """        for x, y in pairs:  # before sorting, which mixed types would break
            if type(x) is not int or type(y) is not int:
""",
        """        for x, y in pairs:  # before sorting, which mixed types would break
            if False:
""",
        ("tests/test_pfun.py::test_points_that_are_not_integers_rejected",),
    ),
    Mutant(
        "PartialFunction takes base points of any type",
        "src/diffrest/pfun.py",
        "            if type(p) is not int:\n",
        "            if False:\n",
        ("tests/test_pfun.py::test_base_points_that_are_not_integers_rejected",),
    ),
    Mutant(
        "SearchBudget takes limits that are not integers",
        "src/diffrest/oracle.py",
        "if type(max_base_size) is not int or type(node_limit) is not int:",
        "if False:",
        ("tests/test_cli.py::test_search_budget_fields_that_are_not_integers_rejected",),
    ),
    # The cover search: one column per trace, its least relabeling.
    Mutant(
        "cover columns keep the canonical trace, not its least relabeling",
        "src/diffrest/oracle.py",
        "columns.append((-mask.bit_count(), tuple([rank[v] for v in trace]), mask))",
        "columns.append((-mask.bit_count(), trace, mask))",
        (EMBEDDING_CORPUS,),
    ),
    Mutant(
        "cover search opens columns that separate nothing new",
        "src/diffrest/oracle.py",
        "if mask & unseparated:",
        "if True:",
        (EMBEDDING_CORPUS,),
    ),
    Mutant(
        "cover columns tried by ascending popcount",
        "src/diffrest/oracle.py",
        "columns.append((-mask.bit_count(),",
        "columns.append((mask.bit_count(),",
        (EMBEDDING_CORPUS,),
    ),
    # The pair-mask closure and verifier.
    Mutant(
        "old x new products skipped in a wave",
        "src/diffrest/pfun.py",
        "tail = elems if i >= wave else elems[wave:]",
        "tail = elems if i >= wave else []",
        (MASKS_CORPUS,),
    ),
    Mutant(
        "wave order by int value",
        "src/diffrest/pfun.py",
        "for g in sorted(fresh, key=lambda g: list(mask_iter(g))):",
        "for g in sorted(fresh):",
        (MASKS_CORPUS,),
    ),
    Mutant(
        "_not_closed tries restrict first",
        "src/diffrest/pfun.py",
        "next(p for p in products if p[3] not in index)",
        "next(p for p in sorted(products, key=lambda p: p[0] == \"minus\") if p[3] not in index)",
        (MASKS_FIXTURES,),
    ),
    Mutant(
        "closure cap checked with >",
        "src/diffrest/pfun.py",
        "if len(elems) >= cap:",
        "if len(elems) > cap:",
        (MASKS_FIXTURES,),
    ),
    Mutant(
        "pairs indexed in reverse",
        "src/diffrest/pfun.py",
        "pairs = sorted(set().union(*graphs))",
        "pairs = sorted(set().union(*graphs), reverse=True)",
        (MASKS_FIXTURES,),
    ),
    Mutant(
        "verifier's restrict check with operands swapped",
        "src/diffrest/represent.py",
        "if masks[alg.restrict[a][b]] != masks[b] & doms[a]:",
        "if masks[alg.restrict[a][b]] != masks[a] & doms[b]:",
        (MASKS_FIXTURES,),
    ),
    Mutant(
        "verifier names the last mixed base",
        "src/diffrest/represent.py",
        'failures.append(VerificationFailure("base", (0, mixed[0])))',
        'failures.append(VerificationFailure("base", (0, mixed[-1])))',
        (MASKS_FIXTURES,),
    ),
    Mutant(
        "verifier goes on after the base failure",
        "src/diffrest/represent.py",
        """        failures.append(VerificationFailure("base", (0, mixed[0])))
        return VerificationReport(False, tuple(failures), None)
""",
        """        failures.append(VerificationFailure("base", (0, mixed[0])))
""",
        (MASKS_FIXTURES,),
    ),
    Mutant(
        "pair rows keyed and read by the second point",
        "src/diffrest/pfun.py",
        """    for i, (x, _) in enumerate(pairs):
        rows[x] = rows.get(x, 0) | 1 << i

    def dom(mask: int) -> int:
        out = 0
        while rest := mask & ~out:
            out |= rows[pairs[(rest & -rest).bit_length() - 1][0]]
""",
        """    for i, (_, x) in enumerate(pairs):
        rows[x] = rows.get(x, 0) | 1 << i

    def dom(mask: int) -> int:
        out = 0
        while rest := mask & ~out:
            out |= rows[pairs[(rest & -rest).bit_length() - 1][1]]
""",
        ("tests/test_fuzz.py::test_mask_closure_matches_the_set_closure",),
    ),
    Mutant(
        "closure restricts as h & ~dom",
        "src/diffrest/pfun.py",
        "fresh.update([g & ~h for h in tail], [h & d for h in tail])",
        "fresh.update([g & ~h for h in tail], [h & ~d for h in tail])",
        ("tests/test_fuzz.py::test_mask_closure_matches_the_set_closure",),
    ),
    Mutant(
        "closure seeds get zeroed domain masks",
        "src/diffrest/pfun.py",
        "doms = [dom(g) for g in elems]",
        "doms = [0 for g in elems]",
        ("tests/test_pair_masks.py::test_a_passing_verification_derives_the_tables_once",),
    ),
)


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_tests(tree: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    return done.returncode


def apply(tree: Path, mutant: Mutant) -> str | None:
    """Edit the copy; return why the edit does not apply, or None."""
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"old text occurs {count} times in {mutant.path}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return None


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    if unknown := [n for n in names if n not in known]:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    chosen = [known[n] for n in names] if names else list(MUTANTS)
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp, "clean")
        copy_tree(clean)
        tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        if (code := run_tests(clean, tests)) != 0:
            print(f"ERROR the named tests do not pass on the unedited tree (pytest exit {code})")
            return 1
        for i, mutant in enumerate(chosen):
            tree = Path(tmp, f"mutant{i}")
            copy_tree(tree)
            if (why := apply(tree, mutant)) is not None:
                verdict = f"STALE ({why})"
            else:
                code = run_tests(tree, mutant.tests)
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            bad += verdict != "killed"
            print(f"{mutant.name}: {verdict}", flush=True)
            shutil.rmtree(tree)
    seconds = time.perf_counter() - start
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed in {seconds:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
