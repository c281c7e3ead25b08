"""Command-line front door.

One verb per construction: ``check`` and ``laws`` evaluate the laws,
``filters`` and ``quotient`` print the derived structure, ``represent``
and ``complete`` build and verify representations, ``search`` runs the
brute-force oracles, ``diff`` cross-validates a corpus, and
``interp-boolean`` interprets a powerset as an identity-function
algebra.  Every verdict line starts with PASS, FAIL, or INCONCLUSIVE;
``--format structured`` switches the remaining payload to key=value
form; the searches and ``diff`` take none.  A file holds one algebra,
except for ``diff``, which reads every algebra of every file.  Every
answer is deterministic, so no verb takes a seed.  Exit codes: 0 all
pass, 1 any failure, 2 input error, 3 inconclusive search, 141 (as for
SIGPIPE) when stdout closes early.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import (
    LAW_TABLE,
    AlgebraError,
    AxiomReport,
    FiniteAlgebra,
    SizeCapError,
    TableError,
    check_axioms,
    check_derived_laws,
    domain_quotient,
    mask_iter,
    mask_of,
)
from .filters import enumerate_filters
from .formats import (
    ParseError,
    abstract_of,
    load_path,
    serialize_algebra,
    serialize_concrete,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SearchBudget,
    brute_force_embedding,
    differential_check,
    enumerate_axiom_models,
)
from .pfun import ConcreteAlgebra, PfunError, boolean_as_diffrest, format_pf_literal
from .represent import (
    CompletenessReport,
    Representation,
    atomic_eta,
    atomic_theta,
    canonical_theta,
    completeness_report,
    injective_eta,
    verify_representation,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a reader that left

MODES = {
    "theta": canonical_theta,
    "eta": injective_eta,
    "atomic-theta": atomic_theta,
    "atomic-eta": atomic_eta,
}


def _law_lines(report: AxiomReport, alg: FiniteAlgebra, structured: bool) -> list[str]:
    lines = []
    for v in report.verdicts:
        law = f"law={v.law}" if structured else v.law
        if v.passed:
            lines.append(f"PASS {law}")
            continue
        names = [alg.element_name(x) for x in v.witness]
        if structured:
            witness = "witness=" + ",".join(names)
        else:
            pairs = zip(LAW_TABLE[v.law].varnames, names)
            witness = "witness " + " ".join(f"{var}={name}" for var, name in pairs)
        lines.append(f"FAIL {law} {witness}")
    return lines


def _load_single(path: str) -> FiniteAlgebra:
    """The one algebra in ``path``; a file of several is an input error."""
    docs = load_path(path)
    if len(docs) > 1:
        raise TableError(f"{path} holds {len(docs)} algebras; this verb reads one")
    return abstract_of(docs[0])


def _gate(alg: FiniteAlgebra, structured: bool) -> AxiomReport | None:
    """Print the axiom report and refuse when the laws fail."""
    report = check_axioms(alg)
    if not report.passed:
        for line in _law_lines(report, alg, structured):
            print(line)
        return None
    return report


def cmd_check(args) -> int:
    alg = _load_single(args.file)
    report = check_axioms(alg)
    for line in _law_lines(report, alg, args.format == "structured"):
        print(line)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_laws(args) -> int:
    alg = _load_single(args.file)
    if _gate(alg, args.format == "structured") is None:
        return EXIT_FAIL
    report = check_derived_laws(alg)
    for line in _law_lines(report, alg, args.format == "structured"):
        print(line)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_filters(args) -> int:
    alg = _load_single(args.file)
    structured = args.format == "structured"
    if _gate(alg, structured) is None:
        return EXIT_FAIL
    family = enumerate_filters(alg)
    maximal = {f.members for f in family.maximal}
    for i, f in enumerate(family.all_filters):
        flags = []
        if f.members in maximal:
            flags.append("maximal")
        if f.members == alg.all_mask:
            flags.append("full")
        suffix = (" " + " ".join(flags)) if flags else ""
        if structured:
            members = ",".join(alg.element_name(a) for a in f.sort_key())
            print(f"FILTER index={i} members={members} class={family.approx_class[i]}{suffix}")
        else:
            print(f"FILTER {f.render()} class={family.approx_class[i]}{suffix}")

    # Order on classes induced by the lifted preorder, printed as covers.
    n_classes = family.n_classes
    first = [family.approx_class.index(c) for c in range(n_classes)]
    # above[c] is the mask of the classes d with class c below class d.
    above = [
        mask_of(d for d in range(n_classes) if family.domhat[first[c]] >> first[d] & 1)
        for c in range(n_classes)
    ]
    for c in range(n_classes):
        for d in mask_iter(above[c] & ~(1 << c)):
            between = above[c] & ~(1 << c | 1 << d)
            if not any(above[e] >> d & 1 for e in mask_iter(between)):
                print(f"COVER lower=class{c} upper=class{d}")
    return EXIT_PASS


def cmd_quotient(args) -> int:
    alg = _load_single(args.file)
    structured = args.format == "structured"
    if _gate(alg, structured) is None:
        return EXIT_FAIL
    quot = domain_quotient(alg)
    for c in range(quot.n_classes):
        members = ",".join(alg.element_name(a) for a in quot.class_members(c))
        rep = alg.element_name(quot.class_rep[c])
        print(f"CLASS {c} rep={rep} members={members}")
    for c in range(quot.n_classes):
        print(f"MEET {c}: " + " ".join(str(v) for v in quot.meet[c]))
    for c in range(quot.n_classes):
        print(f"QMINUS {c}: " + " ".join(str(v) for v in quot.qminus[c]))
    return EXIT_PASS


def _state_label(state) -> str:
    if isinstance(state, tuple) and len(state) == 2 and state[0] in ("class", "atom", "filter"):
        kind, payload = state
        if kind == "filter":
            return f"filter{{{','.join(str(p) for p in payload)}}}"
        return f"{kind}:{payload}"
    if isinstance(state, tuple):
        return "filter{" + ",".join(str(p) for p in state) + "}"
    return str(state)


def _verification_lines(rep: Representation, report) -> list[str]:
    if report.passed:
        return [
            f"PASS verification kind={rep.kind} elements={rep.source.size} "
            f"states={len(rep.states)}"
        ]
    lines = []
    for failure in report.failures:
        witness = ",".join(str(w) for w in failure.witness)
        lines.append(f"FAIL verification check={failure.check} witness={witness}")
    return lines


def _completeness_line(report: CompletenessReport) -> tuple[str, bool]:
    ok = report.fully_complete
    token = "PASS" if ok else "FAIL"
    line = (
        f"{token} completeness meet={'yes' if report.meet_complete else 'no'} "
        f"join={'yes' if report.join_complete else 'no'} "
        f"atomic={'yes' if report.atomic else 'no'} "
        f"subsets={report.subsets_checked}"
    )
    return line, ok


def cmd_represent(args) -> int:
    alg = _load_single(args.file)
    structured = args.format == "structured"
    if _gate(alg, structured) is None:
        return EXIT_FAIL
    rep = MODES[args.mode](alg)
    for i, state in enumerate(rep.states):
        print(f"STATE {i} {_state_label(state)}")
    for a in range(alg.size):
        print(f"ELEMENT {alg.element_name(a)} {format_pf_literal(rep.assignment[a])}")
    report = verify_representation(rep)
    for line in _verification_lines(rep, report):
        print(line)
    comp_line, complete_ok = _completeness_line(completeness_report(rep))
    print(comp_line)
    if report.passed and args.emit_concrete:
        with open(args.emit_concrete, "w", encoding="utf-8") as handle:
            image = ConcreteAlgebra(rep.assignment[0].base, rep.assignment, alg)
            handle.write(serialize_concrete(image))
    return EXIT_PASS if report.passed and complete_ok else EXIT_FAIL


def cmd_complete(args) -> int:
    alg = _load_single(args.file)
    structured = args.format == "structured"
    if _gate(alg, structured) is None:
        return EXIT_FAIL
    rep = MODES[args.mode](alg)
    line, ok = _completeness_line(completeness_report(rep))
    print(line)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_search_models(args) -> int:
    budget = SearchBudget(node_limit=args.node_limit)
    catalog = enumerate_axiom_models(args.size, budget)
    for i, model in enumerate(catalog.models):
        print(f"MODEL {i}")
        sys.stdout.write(serialize_algebra(model))
    token = "PASS" if catalog.exhaustive else "INCONCLUSIVE"
    print(
        f"{token} models size={catalog.size} count={len(catalog.models)} "
        f"exhaustive={'yes' if catalog.exhaustive else 'no'} nodes={catalog.nodes}"
    )
    return EXIT_PASS if catalog.exhaustive else EXIT_INCONCLUSIVE


def cmd_search_embed(args) -> int:
    alg = _load_single(args.file)
    budget = SearchBudget(max_base_size=args.max_base, node_limit=args.node_limit)
    result = brute_force_embedding(alg, budget)
    detail = f"base={result.base_size} nodes={result.nodes}"
    if result.verdict == "found":
        for a in range(alg.size):
            print(
                f"ELEMENT {alg.element_name(a)} {format_pf_literal(result.assignment[a])}"
            )
        print(f"PASS embedding verdict=found {detail}")
        return EXIT_PASS
    if result.verdict == "none":
        print(f"FAIL embedding verdict=none {detail}")
        return EXIT_FAIL
    print(f"INCONCLUSIVE embedding verdict=inconclusive {detail}")
    return EXIT_INCONCLUSIVE


def cmd_diff(args) -> int:
    corpus = []
    for path in args.files:
        corpus.extend(abstract_of(doc) for doc in load_path(path))
    budget = SearchBudget(max_base_size=args.max_base, node_limit=args.node_limit)
    report = differential_check(corpus, budget)
    for e in report.entries:
        token = "INCONCLUSIVE" if e.agree is None else ("PASS" if e.agree else "FAIL")
        print(
            f"{token} algebra={e.index} axioms={'pass' if e.axioms.passed else 'fail'} "
            f"embedding={e.embedding.verdict} base={e.embedding.base_size}"
        )
    agree = sum(1 for e in report.entries if e.agree)
    token = (
        "FAIL"
        if report.disagreements
        else ("INCONCLUSIVE" if report.inconclusive else "PASS")
    )
    print(
        f"{token} differential algebras={len(report.entries)} agree={agree} "
        f"disagree={len(report.disagreements)} inconclusive={len(report.inconclusive)}"
    )
    if report.disagreements:
        return EXIT_FAIL
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_interp_boolean(args) -> int:
    conc = boolean_as_diffrest(args.universe)
    alg = conc.abstract
    report = check_axioms(alg)
    for line in _law_lines(report, alg, args.format == "structured"):
        print(line)
    print(
        f"{'PASS' if report.passed else 'FAIL'} interp-boolean universe={args.universe} "
        f"elements={alg.size}"
    )
    if args.emit_concrete:
        with open(args.emit_concrete, "w", encoding="utf-8") as handle:
            handle.write(serialize_concrete(conc))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="text for humans, structured for key=value verdict lines",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffrest",
        description="Decide the laws of complement-and-restriction algebras on "
        "finite tables, build their representations by partial functions, and "
        "cross-check everything with brute-force search.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="evaluate the five defining laws")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("laws", help="evaluate the derived laws")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("filters", help="list filters, maximal ones, and the class order")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=cmd_filters)

    p = sub.add_parser("quotient", help="print the domain quotient and its tables")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=cmd_quotient)

    for verb, help_text in (
        ("represent", "build a representation, verify it, and report completeness"),
        ("complete", "report completeness of a representation"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("file")
        p.add_argument("--mode", choices=tuple(MODES), required=True)
        _add_format(p)
        if verb == "represent":
            p.add_argument(
                "--emit-concrete",
                metavar="OUT",
                help="write the image algebra as a concrete file",
            )
            p.set_defaults(func=cmd_represent)
        else:
            p.set_defaults(func=cmd_complete)

    p = sub.add_parser("search", help="brute-force oracles")
    search_sub = p.add_subparsers(dest="what", required=True)

    p_models = search_sub.add_parser("models", help="enumerate law models up to isomorphism")
    p_models.add_argument("--size", type=int, required=True)
    p_models.add_argument("--node-limit", type=int, default=DEFAULT_BUDGET.node_limit)
    p_models.set_defaults(func=cmd_search_models)

    p_embed = search_sub.add_parser("embed", help="search for a concrete embedding")
    p_embed.add_argument("--file", required=True)
    p_embed.add_argument("--max-base", type=int, required=True)
    p_embed.add_argument("--node-limit", type=int, default=DEFAULT_BUDGET.node_limit)
    p_embed.set_defaults(func=cmd_search_embed)

    p = sub.add_parser("diff", help="cross-validate a corpus of algebra files")
    p.add_argument("files", nargs="+")
    p.add_argument("--max-base", type=int, default=DEFAULT_BUDGET.max_base_size)
    p.add_argument("--node-limit", type=int, default=DEFAULT_BUDGET.node_limit)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "interp-boolean", help="powerset as an algebra of identity functions"
    )
    p.add_argument("--universe", type=int, required=True)
    p.add_argument("--emit-concrete", metavar="OUT")
    _add_format(p)
    p.set_defaults(func=cmd_interp_boolean)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away (``| head``): stop quietly, as SIGPIPE would,
        # and send what is still buffered to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (
        ParseError, TableError, SizeCapError, PfunError, BudgetExceededError, OSError
    ) as err:
        print(f"ERROR {err}", file=sys.stderr)
        return EXIT_INPUT
    except AlgebraError as err:
        print(f"FAIL {err}")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
