"""One benchmark pass: set up a workload's inputs, run its timed section,
check every verdict against a known answer, and print one JSON line.

``run.py`` starts one fresh worker process per pass.  A fresh process
matters because ``domain_quotient``, ``boolean_downset`` and
``enumerate_filters`` keep unbounded caches keyed by table equality:
repeated passes in one process would time cache hits that no
command-line user ever gets.

Usage: python3 bench/worker.py --workload corpus200 --seed 74 --trace 0
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"

# The public functions the workloads call, by layer (module of
# src/diffrest).  The cli layer is absent on purpose: its own work is
# argument parsing and line printing, and the workloads call the same
# functions its verbs call.
LAYERS = {
    "formats": ("parse_algebras", "serialize_concrete"),
    "pfun": ("random_generators", "close_generators", "boolean_as_diffrest"),
    "algebra": ("check_axioms", "check_derived_laws", "domain_quotient", "boolean_downset"),
    "filters": ("enumerate_filters", "ultrafilter_bijection"),
    "represent": (
        "canonical_theta",
        "injective_eta",
        "atomic_theta",
        "atomic_eta",
        "verify_representation",
        "completeness_report",
    ),
    "oracle": ("generating_set", "brute_force_embedding", "enumerate_axiom_models"),
}

CONSTRUCTIONS = ("canonical_theta", "injective_eta", "atomic_theta", "atomic_eta")

# differential_check's rule: search at base = number of atoms, 5 M nodes.
EMBED_NODE_LIMIT = 5_000_000

# The corpus: (smallest n, largest n, slots) per closure-size stratum.
# The slots follow the recipe's own mix per 200 draws, fixed so that
# every seed gets the same share of cheap and costly algebras; draws
# whose embedding search has more trace candidates than the cap are
# redrawn, which keeps the searches small.
CORPUS_STRATA = (
    (1, 1, 22),
    (2, 2, 97),
    (3, 3, 17),
    (4, 4, 10),
    (5, 5, 21),
    (6, 6, 8),
    (7, 7, 8),
    (8, 8, 3),
    (9, 9, 2),
    (10, 10, 4),
    (11, 11, 2),
    (12, 12, 1),
    (13, 13, 1),
    (14, 14, 1),
    (15, 15, 1),
    (16, 16, 1),
    (17, 20, 1),
)
CORPUS_MAX_CANDIDATES = 1000

# Exhaustive model counts of the five laws, sizes 1..5.
MODEL_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 7}

# The large workload's closure: the seed-1 draw of 6 random generators
# on 6 points (36 elements, 12 atoms, a 5-element generating set).  A
# fresh draw per seed would change the embedding search space by 10x
# and more, so the seed relabels this closure's elements instead, and
# redraws the relabeling until the generating set again has 5 elements:
# the greedy generating set depends on element ids, and 6 or 7
# generators take 13^6 or 13^7 trace candidates.
LARGE_BASE = range(1, 7)
LARGE_GENERATORS = 6
LARGE_CLOSURE_SEED = 1


def cpu_seconds() -> float:
    """CPU time of this process and of the child processes it has reaped.

    Every time the benchmark reports is read from this clock, not from
    the wall clock.  The library is single-threaded and never waits, so
    on an idle host the two agree; on a shared virtual machine the wall
    time of one algebra's pipeline also counts the time the worker was
    descheduled, and spread 35 % between passes of the same input where
    CPU time spread 7 %.  Reaped children are counted so that work moved
    into a subprocess still shows.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Spans:
    """Summed time (ms) and call count per ``<layer>.<function>``.

    Spans are recorded around the benchmark's own calls into the
    library; calls the library makes internally are not split out.
    Time spent in host-speed probes is left out.
    """

    def __init__(self, host: "HostSpeed") -> None:
        self.host = host
        self.ms: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            start, probes = cpu_seconds(), self.host.spent_s
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = cpu_seconds() - start - (self.host.spent_s - probes)
                self.ms[name] = self.ms.get(name, 0.0) + elapsed * 1e3
                self.calls[name] = self.calls.get(name, 0) + 1

        return timed


def bind_api(spans: Spans | None) -> SimpleNamespace:
    """The library functions of LAYERS, wrapped in spans when tracing."""
    api = {}
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"diffrest.{layer}")
        for name in names:
            fn = getattr(module, name)
            api[name] = fn if spans is None else spans.wrap(f"{layer}.{name}", fn)
    return SimpleNamespace(**api)


class Verdicts:
    """Known-answer checks: every check counts, every miss is kept."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# Inputs (set-up, untimed by wall_s, timed by setup_s)
# ---------------------------------------------------------------------------


def corpus_inputs(api, seed: int):
    """Closures drawn with the acceptance corpus recipe (1..4 points,
    1..3 generators), kept by closure-size stratum until every stratum
    of CORPUS_STRATA is full, serialized one concrete .alg text each."""
    from diffrest.algebra import SizeCapError

    rng = random.Random(seed)
    room = [quota for _, _, quota in CORPUS_STRATA]
    texts = []
    shapes = []
    draws = 0
    while any(room):
        draws += 1
        base_size = rng.randint(1, 4)
        n_gens = rng.randint(1, 3)
        base = range(1, base_size + 1)
        try:
            conc = api.close_generators(base, api.random_generators(rng, base, n_gens))
        except SizeCapError:
            continue
        n = conc.abstract.size
        k = next((i for i, (lo, hi, _) in enumerate(CORPUS_STRATA) if lo <= n <= hi), None)
        if k is None or not room[k]:
            continue
        shape = search_shape(api, conc.abstract)
        if shape["candidates"] > CORPUS_MAX_CANDIDATES:
            continue
        room[k] -= 1
        texts.append(api.serialize_concrete(conc))
        shapes.append(shape)
    sizes = [shape["n"] for shape in shapes]
    params = {
        "algebras": len(texts),
        "draws": draws,
        "n_max": max(sizes),
        "n_median": statistics.median(sizes),
        "n_total": sum(sizes),
        "candidates_total": sum(shape["candidates"] for shape in shapes),
    }
    return texts, params


def search_shape(api, alg) -> dict:
    """Size, atoms, generating-set size and embedding trace candidates."""
    n_atoms = len(alg.order_atoms())
    n_gens = len(api.generating_set(alg))
    return {
        "n": alg.size,
        "atoms": n_atoms,
        "gens": n_gens,
        "candidates": (n_atoms + 1) ** n_gens,
    }


def relabeled(conc, sigma):
    """The tables and elements of ``conc`` with element ``a`` renamed ``sigma[a]``."""
    from diffrest.algebra import FiniteAlgebra

    alg = conc.abstract
    inv = [0] * alg.size
    for old, new in enumerate(sigma):
        inv[new] = old
    minus = [[sigma[alg.minus[x][y]] for y in inv] for x in inv]
    restrict = [[sigma[alg.restrict[x][y]] for y in inv] for x in inv]
    elements = tuple(conc.elements[old] for old in inv)
    return FiniteAlgebra.from_tables(minus, restrict), elements


def large_inputs(api, seed: int):
    """The 64-element powerset and the closure relabeled by the seed."""
    from diffrest.pfun import ConcreteAlgebra

    powerset = api.boolean_as_diffrest(6)
    closure = api.close_generators(
        LARGE_BASE,
        api.random_generators(random.Random(LARGE_CLOSURE_SEED), LARGE_BASE, LARGE_GENERATORS),
    )
    n_gens = len(api.generating_set(closure.abstract))
    rng = random.Random(seed)
    sigma = list(range(closure.abstract.size))
    draws = 0
    while True:
        draws += 1
        rng.shuffle(sigma)
        alg, elements = relabeled(closure, sigma)
        if len(api.generating_set(alg)) == n_gens:
            break
    closure = ConcreteAlgebra(closure.base, elements, alg)
    texts = [api.serialize_concrete(powerset), api.serialize_concrete(closure)]
    params = {
        "powerset": search_shape(api, powerset.abstract),
        "closure": dict(search_shape(api, closure.abstract), relabelings=draws),
    }
    return texts, params


# ---------------------------------------------------------------------------
# Timed pipelines
# ---------------------------------------------------------------------------


def round_trips(forward: dict, backward: dict) -> bool:
    return (
        len(forward) == len(backward) > 0
        and all(
            nu in backward and backward[nu].members == mu.members
            for mu, nu in forward.items()
        )
        and all(forward.get(mu) == nu for nu, mu in backward.items())
    )


def algebra_pipeline(api, text: str, cap: int, v: Verdicts, counts: dict, label: str) -> None:
    """Parse one concrete algebra and take every verdict on it."""
    from diffrest.oracle import SearchBudget

    (doc,) = api.parse_algebras(text)
    alg = doc.abstract
    v.check(api.check_axioms(alg).passed, f"{label}: axioms")
    v.check(api.check_derived_laws(alg).passed, f"{label}: derived laws")
    api.domain_quotient(alg)
    api.enumerate_filters(alg)
    for a in range(alg.size):
        if a == alg.zero:
            continue
        api.boolean_downset(alg, a)
        forward, backward = api.ultrafilter_bijection(alg, a)
        v.check(round_trips(forward, backward), f"{label}: ultrafilter bijection at {a}")
    for name in CONSTRUCTIONS:
        # The command-line verbs gate every construction on the axioms.
        v.check(api.check_axioms(alg).passed, f"{label}: axiom gate before {name}")
        rep = getattr(api, name)(alg)
        v.check(api.verify_representation(rep).passed, f"{label}: {name} verifies")
        report = api.completeness_report(rep, subset_cap=cap)
        counts["represent.completeness_report.subsets"] += report.subsets_checked
        v.check(report.fully_complete, f"{label}: {name} meet/join/atomic complete")
    budget = SearchBudget(
        max_base_size=len(alg.order_atoms()), node_limit=EMBED_NODE_LIMIT
    )
    result = api.brute_force_embedding(alg, budget)
    counts["oracle.brute_force_embedding.nodes"] += result.nodes
    v.check(result.verdict == "found", f"{label}: embedding {result.verdict}")


def models_pipeline(api, n: int, v: Verdicts, counts: dict) -> None:
    """Enumerate the models of one size and take every verdict on them."""
    catalog = api.enumerate_axiom_models(n)
    counts["oracle.enumerate_axiom_models.nodes"] += catalog.nodes
    counts["oracle.enumerate_axiom_models.models"] += len(catalog.models)
    v.check(
        catalog.exhaustive and len(catalog.models) == MODEL_COUNTS[n],
        f"size {n}: {len(catalog.models)} models, expected {MODEL_COUNTS[n]}",
    )
    for i, model in enumerate(catalog.models):
        label = f"size {n} model {i}"
        v.check(api.check_axioms(model).passed, f"{label}: axioms")
        v.check(api.check_derived_laws(model).passed, f"{label}: derived laws")
        rep = api.canonical_theta(model)
        v.check(api.verify_representation(rep).passed, f"{label}: canonical_theta verifies")


COUNTS = (
    "oracle.brute_force_embedding.nodes",
    "oracle.enumerate_axiom_models.nodes",
    "oracle.enumerate_axiom_models.models",
    "represent.completeness_report.subsets",
)


# The host-speed probe runs reference_work() every PROBE_INTERVAL_S;
# times are scaled to a host where it takes REFERENCE_MS.
REFERENCE_MS = 1.0
PROBE_INTERVAL_S = 0.1

# Workloads that run algebra_pipeline: input maker and completeness subset cap.
ALGEBRA_WORKLOADS = {"corpus200": (corpus_inputs, 10), "large": (large_inputs, 20)}


def reference_work() -> int:
    """Fixed pure-Python work: half integer arithmetic, half tuple, set and
    dict churn like the library's.  The library's calls slow down more
    than the arithmetic alone and less than the churn alone when the host
    is busy, so the probe mixes both."""
    total = 0
    for i in range(6000):
        total += i * i
    for _ in range(12):
        pairs = [(i % 7, i % 11) for i in range(120)]
        left, right = frozenset(pairs[:80]), frozenset(pairs[40:])
        total += len(left & right) + len(left | right)
        index = {pair: i for i, pair in enumerate(pairs)}
        for pair in pairs:
            total += index[pair]
    return total


class HostSpeed:
    """Samples the host's speed by timing reference_work() on the CPU
    clock every PROBE_INTERVAL_S of wall time, from a SIGALRM handler, so
    the samples also fall inside long library calls.  (A SIGPROF timer
    would not do: while a process CPU timer is armed, Linux advances the
    process CPU clock only at scheduler ticks.)

    On a shared virtual machine the probe's time drifts by up to 2x
    within minutes, and every time a pass measures drifts with it.  The
    pass reports its raw times (probe time taken out) and ``factor``,
    the mean of REFERENCE_MS over the probe's times: raw seconds times
    ``factor`` are seconds on a host where the probe takes REFERENCE_MS.
    """

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self.spent_s = 0.0

    def _probe(self, signum=None, frame=None) -> None:
        start = cpu_seconds()
        reference_work()
        spent = cpu_seconds() - start
        self.samples_ms.append(spent * 1e3)
        self.spent_s += spent

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples_ms:
            self._probe()

    @property
    def factor(self) -> float:
        return statistics.mean(REFERENCE_MS / ms for ms in self.samples_ms)


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    with HostSpeed() as host:
        start = cpu_seconds()
        if not (SRC / "diffrest" / "__init__.py").is_file():
            raise SystemExit(f"diffrest sources not found under {SRC}")
        sys.path.insert(0, str(SRC))
        importlib.import_module("diffrest")
        spans = Spans(host) if trace else None
        api = bind_api(spans)

        if workload == "models5":
            params = {"sizes": list(MODEL_COUNTS)}
            units = [partial(models_pipeline, api, n) for n in MODEL_COUNTS]
        else:
            make_inputs, subset_cap = ALGEBRA_WORKLOADS[workload]
            texts, params = make_inputs(api, seed)
            units = [
                partial(algebra_pipeline, api, text, subset_cap, label=f"algebra {i}")
                for i, text in enumerate(texts)
            ]
        setup_s = cpu_seconds() - start - host.spent_s

        verdicts = Verdicts()
        counts = dict.fromkeys(COUNTS, 0)
        verdict_ms = []
        timed_start, timed_probes = cpu_seconds(), host.spent_s
        for i, unit in enumerate(units):
            unit_start, unit_probes = cpu_seconds(), host.spent_s
            try:
                unit(verdicts, counts)
            except Exception as err:  # a raised verdict is a failed verdict
                verdicts.check(False, f"unit {i} raised {type(err).__name__}: {err}")
            unit_s = cpu_seconds() - unit_start - (host.spent_s - unit_probes)
            verdict_ms.append(unit_s * 1e3)
        wall_s = cpu_seconds() - timed_start - (host.spent_s - timed_probes)

    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "verdict_ms": verdict_ms,
        "host_factor": host.factor,
        "probe_ms": statistics.median(host.samples_ms),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checked": verdicts.checked,
        "failures": verdicts.failures,
        "counts": counts,
        "params": params,
        "spans": None if spans is None else {"ms": spans.ms, "calls": spans.calls},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))


if __name__ == "__main__":
    main()
