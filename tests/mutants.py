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
LIFTED_PREORDER = "tests/test_certificates.py::test_lifted_preorder_matches_the_pair_walk"
ULTRAFILTER_REFERENCE = "tests/test_filters.py::test_ultrafilter_bijection_matches_the_reference"

MUTANTS = (
    Mutant(
        "per_algebra keeps a module-level cache",
        "src/diffrest/algebra.py",
        """    @wraps(fn)
    def cached(alg: FiniteAlgebra, *args):
        key = (fn, *args, *map(type, args))
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
        "missing products sorted restrict first",
        "src/diffrest/pfun.py",
        "op, a, b, product = min(missing)",
        "op, a, b, product = min(missing, key=lambda p: (p[0] == \"minus\", p[1:3]))",
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
        "product walk's restrict check with operands swapped",
        "src/diffrest/pfun.py",
        "if masks[restrict_row[b]] != h & d:",
        "if masks[restrict_row[b]] != g & doms[b]:",
        (MASKS_FIXTURES,),
    ),
    Mutant(
        "product walk skips restrict products",
        "src/diffrest/pfun.py",
        "if masks[restrict_row[b]] != h & d:",
        "if False:",
        (MASKS_FIXTURES,),
    ),
    Mutant(
        "ConcreteAlgebra reports a missing product as a table disagreement",
        "src/diffrest/pfun.py",
        "if missing := [p for p in broken if p[3] not in masks]:",
        "if missing := []:",
        (MASKS_FIXTURES,),
    ),
    Mutant(
        "verifier passes whatever it finds",
        "src/diffrest/represent.py",
        "return VerificationReport(not failures, tuple(failures))",
        "return VerificationReport(True, tuple(failures))",
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
        return VerificationReport(False, tuple(failures))
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
    # Input checks on element ids, masks, sizes and assignment lengths.
    Mutant(
        "per_algebra keys ignore the arguments' types",
        "src/diffrest/algebra.py",
        "key = (fn, *args, *map(type, args))",
        "key = (fn, *args)",
        ("tests/test_algebra.py::test_boolean_downset_refuses_what_is_not_an_element",),
    ),
    Mutant(
        "principal_filter takes any index",
        "src/diffrest/filters.py",
        """    if type(a) is not int or not 0 <= a < alg.size:
        raise TableError(f"no element {a!r}")
    return Filter(alg, alg.up_masks[a])""",
        "    return Filter(alg, alg.up_masks[a])",
        ("tests/test_filters.py::test_principal_filter_refuses_what_is_not_an_element",),
    ),
    Mutant(
        "Filter takes masks that are not integers",
        "src/diffrest/filters.py",
        "if type(mask) is not int:",
        "if False:",
        ("tests/test_filters.py::test_filter_rejects_a_mask_that_is_not_an_integer",),
    ),
    Mutant(
        "boolean_as_diffrest takes sizes that are not integers",
        "src/diffrest/pfun.py",
        "if type(universe) is not int:",
        "if False:",
        ("tests/test_algebra.py::test_sizes_that_are_not_integers_rejected",),
    ),
    Mutant(
        "enumerate_axiom_models takes sizes that are not integers",
        "src/diffrest/oracle.py",
        "if type(n) is not int:",
        "if False:",
        ("tests/test_algebra.py::test_sizes_that_are_not_integers_rejected",),
    ),
    Mutant(
        "completeness_report takes an assignment of any length",
        "src/diffrest/represent.py",
        "if len(rep.assignment) != n:",
        "if False:",
        ("tests/test_represent.py::test_completeness_refuses_an_assignment_of_the_wrong_length",),
    ),
    # The order kernels, the plan walk and the shared bounds.
    Mutant(
        "order kernel matches the value a + 1 in line a",
        "src/diffrest/algebra.py",
        "for line, eq in zip(lines, _EQUALS))",
        "for line, eq in zip(lines, _EQUALS[1:]))",
        ("tests/test_relation_masks.py::test_order_masks_match_the_pairwise_order",),
    ),
    Mutant(
        "fixed-point kernel skips index n - 1",
        "src/diffrest/algebra.py",
        'int(d.to_bytes(n, "little").translate(_EQUALS[0])[::-1], 2)',
        'int(d.to_bytes(n, "little")[:-1].translate(_EQUALS[0])[::-1] or b"0", 2)',
        ("tests/test_relation_masks.py::test_order_masks_match_the_pairwise_order",),
    ),
    Mutant(
        "plan decode swaps (e, x) and (x, e)",
        "src/diffrest/oracle.py",
        "*((x, e) if p & 2 else (e, x))",
        "*((e, x) if p & 2 else (x, e))",
        ("tests/test_embedding_search.py::test_plan_levels_match_the_reference_plan",),
    ),
    Mutant(
        "plan decode reads the operation from p & 2",
        "src/diffrest/oracle.py",
        "derive.append((cell, p & 1,",
        "derive.append((cell, p & 2,",
        ("tests/test_embedding_search.py::test_plan_levels_match_the_reference_plan",),
    ),
    Mutant(
        "shared bounds keyed by the subset alone",
        "src/diffrest/represent.py",
        "key = bound, bound_set",
        "key = bound_set",
        ("tests/test_completeness_scan.py::test_reports_on_one_algebra_take_each_bound_once",),
    ),
    # The filter family read off the order, and the one state provider.
    Mutant(
        "maximal filters taken from every nonzero element",
        "src/diffrest/filters.py",
        "maximal = tuple(filters[x] for x in alg.order_atoms())",
        "maximal = tuple(f for f in filters if f.proper)",
        ("tests/test_filters.py::test_f2_filters",),
    ),
    Mutant(
        "domain classes numbered by least member id",
        "src/diffrest/algebra.py",
        "class_of[b] = count",
        "class_of[b] = a",
        (LIFTED_PREORDER,),
    ),
    Mutant(
        "enumerate_filters without its axiom gate",
        "src/diffrest/filters.py",
        """    report = check_axioms(alg)
    if not report.passed:
        raise AxiomFailure(report)
    filters = tuple(""",
        "    filters = tuple(",
        (LIFTED_PREORDER,),
    ),
    Mutant(
        "filter states left in atom-id order",
        "src/diffrest/represent.py",
        "        ats = sorted(ats, key=lambda x: tuple(mask_iter(up[x])))\n",
        "",
        ("tests/test_represent.py::test_filter_kinds_match_the_reference_maximal_filters",),
    ),
    Mutant(
        "FiniteAlgebra takes a zero that disagrees with the tables",
        "src/diffrest/algebra.py",
        "if type(zero) is not int or zero != bottom:",
        "if False:",
        ("tests/test_algebra.py::test_a_size_or_zero_that_disagrees_with_the_tables_is_refused",),
    ),
    # The ultrafilter bijection read off the atoms, and the atom-mask certificate.
    Mutant(
        "ultrafilter backward map left in forward order",
        "src/diffrest/filters.py",
        "    order = sorted(forward.items(), key=lambda item: list(mask_iter(item[1])))\n",
        "    order = forward.items()\n",
        (ULTRAFILTER_REFERENCE,),
    ),
    Mutant(
        "ultrafilter forward map keeps maximal filters that miss a",
        "src/diffrest/filters.py",
        "for mu in maximal if mu.members >> a & 1}",
        "for mu in maximal}",
        (ULTRAFILTER_REFERENCE,),
    ),
    Mutant(
        "certificate's phi cut to every member, not to the atoms",
        "src/diffrest/algebra.py",
        "phi = {b: d & atoms for b, d in down.items()}",
        "phi = {b: d for b, d in down.items()}",
        ("tests/test_certificates.py::test_certificate_matches_the_battery_on_law_models",),
    ),
    Mutant(
        "closure seeds get zeroed domain masks",
        "src/diffrest/pfun.py",
        "doms = [dom(g) for g in elems]",
        "doms = [0 for g in elems]",
        ("tests/test_pair_masks.py::test_a_passing_verification_indexes_the_pairs_once",),
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
