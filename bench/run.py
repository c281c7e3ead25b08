"""Benchmark runner for diffrest.

    python3 bench/run.py --workload corpus200 --seed 74 --seconds 25 --trace 0

Runs passes of one workload one after another, each in a fresh worker
process (``worker.py``), until ``--seconds`` have passed and at least
three passes are done.  It checks that every verdict matched its known
answer and that inputs and search counts repeated exactly between
passes, prints a summary, and prints one JSON object as the last line
of standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import COUNTS, LAYERS, SRC

WORKER = Path(__file__).resolve().parent / "worker.py"

# name -> (default seed, why the workload is in the benchmark)
WORKLOADS = {
    "corpus200": (
        74,
        "many small algebras (n <= 20, median 2): per-call overhead, "
        "completeness scans and many tiny searches dominate, and 200 distinct "
        "algebras grow the unbounded caches",
    ),
    "large": (
        1,
        "two big algebras (the 64-element powerset and a random closure): the "
        "O(n^3)/O(n^4) law scans, Boolean downsets, the repeated axiom gate, "
        "filters and per-candidate trace propagation in the embedding search; "
        "derived structure is shared heavily within one algebra",
    ),
    "models5": (
        0,
        "model enumeration for sizes 1..5: almost all time goes to the search's "
        "partial-law rechecks and canonical forms, bypassing what large stresses",
    ),
}

# Source modules whose raw line counts are reported: the seven layers.
LAYER_FILES = (*LAYERS, "cli")

MIN_PASSES = 3
# Every run must end within 180 s; no pass starts after this point.
RUN_LIMIT_S = 170.0


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    command = [
        sys.executable,
        str(WORKER),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(int(traced)),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Fresh-process passes until the time is up; traced runs alternate
    traced and untraced passes so the tracing overhead can be reported."""
    passes: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and (
            elapsed >= seconds or elapsed + longest > RUN_LIMIT_S
        ):
            return passes
        traced = trace and len(passes) % 2 == 0
        began = time.perf_counter()
        passes.append(run_worker(workload, seed, traced, RUN_LIMIT_S - elapsed))
        longest = max(longest, time.perf_counter() - began)


def betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), evaluated by
    its continued fraction (modified Lentz)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1.0 - betainc(b, a, 1.0 - x)
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return math.exp(log_front) / a * (f - 1.0)


def percentile(samples: list[float], q: int) -> float:
    """The Harrell-Davis estimate of the q-th percentile: a weighted mean
    of all order statistics, with Beta((n+1)p, (n+1)(1-p)) weights.

    It is used instead of one interpolated order statistic because the
    corpus200 p95 falls between two of its four 10-element algebras, and
    which algebras those are changes with the seed: over ten seeds the
    plain 95th percentile spread 15 %, this estimate 6 %.
    """
    n, p = len(samples), q / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cuts = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum(
        (hi - lo) * x for lo, hi, x in zip(cuts, cuts[1:], sorted(samples))
    )


def median_over(passes: list[dict], value) -> float:
    return statistics.median(value(p) for p in passes)


def scaled(p: dict, raw: float) -> float:
    """A raw time of pass ``p`` on the reference-speed host (see HostSpeed)."""
    return raw * p["host_factor"]


def unit_ms(passes: list[dict]) -> list[float]:
    """Each unit's scaled time, median over passes.  Taking the median per
    unit before the percentile keeps a slow moment of the host in one
    pass from moving a unit across the percentile's cut."""
    return [
        statistics.median(scaled(p, p["verdict_ms"][i]) for p in passes)
        for i in range(len(passes[0]["verdict_ms"]))
    ]


def end_to_end(passes: list[dict]) -> dict:
    units = unit_ms(passes)
    return {
        "wall_s": (median_over(passes, lambda p: scaled(p, p["wall_s"])), "s"),
        "setup_s": (median_over(passes, lambda p: scaled(p, p["setup_s"])), "s"),
        "peak_rss_mb": (median_over(passes, lambda p: p["rss_mb"]), "MB"),
        "verdict_ms.p50": (percentile(units, 50), "ms"),
        "verdict_ms.p95": (percentile(units, 95), "ms"),
    }


def source_lines(module: str) -> int:
    return (SRC / "diffrest" / f"{module}.py").read_text(encoding="utf-8").count("\n")


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["spans"] is not None]
    untraced = [p for p in passes if p["spans"] is None]
    out = {}
    for layer, names in LAYERS.items():
        for name in names:
            key = f"{layer}.{name}"
            ms = median_over(traced, lambda p: scaled(p, p["spans"]["ms"].get(key, 0.0)))
            out[f"{key}.ms"] = (ms, "ms")
            out[f"{key}.calls"] = (traced[0]["spans"]["calls"].get(key, 0), "count")
    counts = passes[0]["counts"]
    for key in COUNTS:
        out[key] = (counts[key], "count")
    nodes = counts["oracle.enumerate_axiom_models.nodes"]
    models = counts["oracle.enumerate_axiom_models.models"]
    out["oracle.enumerate_axiom_models.yield"] = (
        1000 * models / nodes if nodes else 0.0,
        "models/knode",
    )
    for module in LAYER_FILES:
        out[f"{module}.lines"] = (source_lines(module), "lines")
    out["diffrest.lines"] = (
        sum(source_lines(path.stem) for path in (SRC / "diffrest").glob("*.py")),
        "lines",
    )
    out["host.probe.ms"] = (
        median_over(passes, lambda p: p["probe_ms"]),
        "ms",
    )
    out["trace.overhead"] = (
        median_over(traced, lambda p: scaled(p, p["wall_s"]))
        / median_over(untraced, lambda p: scaled(p, p["wall_s"])),
        "ratio",
    )
    return out


def repeats_exactly(passes: list[dict]) -> bool:
    """Inputs, search counts and traced call counts match across passes."""
    first = passes[0]
    calls = [p["spans"]["calls"] for p in passes if p["spans"] is not None]
    return all(
        p["params"] == first["params"] and p["counts"] == first["counts"]
        for p in passes
    ) and all(c == calls[0] for c in calls)


def main() -> None:
    parser = argparse.ArgumentParser(description="Benchmark the diffrest pipeline.")
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, help="input seed (default per workload)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    default_seed, why = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed

    passes = run_passes(args.workload, seed, args.seconds, bool(args.trace))
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["checked"] for p in passes)
    deterministic = repeats_exactly(passes)
    metrics = per_layer(passes) if args.trace else end_to_end(passes)

    print(f"workload {args.workload} seed={seed}: {why}")
    print(f"inputs {json.dumps(passes[0]['params'])}")
    print(f"counts {json.dumps(passes[0]['counts'])}")
    print(
        f"passes={len(passes)} verdicts={attempted} failed={len(failures)} "
        f"failed_share={len(failures) / attempted:.6g} "
        f"repeats_exactly={'yes' if deterministic else 'no'}"
    )
    print("pass raw_wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    print("pass host_factor " + " ".join(f"{p['host_factor']:.3f}" for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures and deterministic,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
