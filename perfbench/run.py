"""Request benchmark for robinspace.

    python3 perfbench/run.py --workload cli-int --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root.  One process runs one workload as a closed
loop with a single client: set up the inputs, warm up on tiny inputs,
then repeat whole rounds of the workload's requests until about
``--seconds`` have passed, checking every output.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics with
``--trace 1``).  ``--workload all`` runs every workload, each in its own
process, one after the other.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import TRACED, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
# Typical time of ``ref_loop`` on the reference host (2 CPUs, Python 3.11).
REF_LOOP_S = 0.0175

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
COUNTED = (
    "pqtree.conical_apex", "core.validate", "copoints.pq_tree2",
    "refine.copoint_partition", "refine.stable_trees", "dendrogram.build_dendrogram",
)


def ref_loop() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host is right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFFF
    return time.perf_counter() - start


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robinspace" / "__init__.py").is_file():
        print(f"error: no robinspace sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


def run_all(args) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    probes = [ref_loop()]
    start = time.perf_counter()
    rs = importlib.import_module("robinspace")
    for sub in ("cli", "copoints", "core", "dendrogram", "mmodtree", "pqtree", "refine", "translate"):
        importlib.import_module(f"robinspace.{sub}")
    import_s = time.perf_counter() - start

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        build_s = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            tally: dict = {}
            start = time.perf_counter()
            requests = workloads.build(rs, args.workload, args.seed, workdir,
                                       random.Random(args.seed), tally)
            build_s.append(time.perf_counter() - start)
            probes.append(ref_loop())
        start = time.perf_counter()
        warm = workloads.build(rs, args.workload, args.seed, workdir / "warm",
                               random.Random(args.seed), {}, small=True)
        warm_stats = run_rounds(warm, 0.0, adjust=False)
        warm_s = time.perf_counter() - start
        probes.append(ref_loop())
        if warm_stats["failed"] or warm_stats["problems"]:
            report_problems(warm_stats)
            return 1
        setup_raw = import_s + statistics.median(build_s) + warm_s

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            stats = run_rounds(requests, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw, adj = stats["raw"], stats["adjusted"]
    if not adj:
        report_problems(stats)
        print("error: no request succeeded", file=sys.stderr)
        return 1
    host_s = statistics.median(stats["probes"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {stats['rounds']}  requests {stats['attempted']}  failed {stats['failed']}")
    print(f"  setup: import {import_s:.3f} s, build {[round(b, 3) for b in build_s]} s "
          f"(median taken), warm-up {warm_s:.3f} s")
    print(f"  host reference loop: median {host_s:.4f} s during requests, "
          f"{statistics.median(probes):.4f} s during setup (reference {REF_LOOP_S} s)")
    print(f"  unadjusted wall time: {len(raw) / sum(raw):.4f} requests/s, "
          f"median {statistics.median(raw):.4f} s, setup {setup_raw:.4f} s")
    if tally:
        print(f"  refusals: {tally}")
    report_problems(stats)

    if args.trace:
        metrics = layer_metrics(tracer, stats["attempted"])
        metrics["host.ref_loop_s"] = {"value": host_s, "unit": "s"}
        metrics["trace.requests_per_s"] = {"value": len(adj) / sum(adj), "unit": "1/s"}
        write_trace(tracer, args, stats)
    else:
        values = {
            "requests_per_s": len(adj) / sum(adj),
            "latency_p50_s": statistics.median(adj),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_raw * REF_LOOP_S / statistics.median(probes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not stats["problems"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_rounds(requests, seconds: float, tracer=None, adjust: bool = True) -> dict:
    """Repeat whole rounds until the next one would end further past
    ``seconds`` than stopping now falls short of it (at least one round).

    With ``adjust`` the reference loop runs right before and right after
    each step of a request, and ``adjusted`` holds each request's time
    with every step scaled to a host on which the loop takes ``REF_LOOP_S``.
    """
    stats = {"raw": [], "adjusted": [], "probes": [],
             "attempted": 0, "failed": 0, "rounds": 0, "errors": [], "problems": []}
    clock = time.perf_counter
    probe = ref_loop if adjust else lambda: REF_LOOP_S
    begin = clock()
    while True:
        for req in requests:
            if tracer:
                tracer.request = stats["attempted"]
            stats["attempted"] += 1
            out: list = []
            took = adjusted = 0.0
            before = probe()
            stats["probes"].append(before)
            try:
                for step in req.steps:
                    start = clock()
                    out.append(step(out))
                    part = clock() - start
                    after = probe()
                    stats["probes"].append(after)
                    took += part
                    adjusted += part * 2 * REF_LOOP_S / (before + after)
                    before = after
            except Exception:
                stats["failed"] += 1
                stats["errors"].append(f"{req.label}: {traceback.format_exc(limit=3)}")
                continue
            if req.expect is not None and out[-1][0] != req.expect:
                stats["failed"] += 1
                stats["errors"].append(f"{req.label}: exit {out[-1][0]}, expected {req.expect}")
                continue
            stats["raw"].append(took)
            stats["adjusted"].append(adjusted)
            try:
                req.check(out)
            except Exception as exc:
                # a wrong answer, or output that does not parse as the documented JSON
                stats["problems"].append(f"{req.label}: {type(exc).__name__}: {exc}")
        stats["rounds"] += 1
        elapsed = clock() - begin
        if elapsed + elapsed / stats["rounds"] / 2 >= seconds:
            return stats


def report_problems(stats: dict) -> None:
    for line in stats["errors"][:5]:
        print(f"  FAILED REQUEST {line}")
    for line in stats["problems"][:5]:
        print(f"  WRONG OUTPUT {line}")


def layer_metrics(tracer, requests: int) -> dict:
    totals = tracer.layer_totals()
    out = {}
    for module, function in TRACED:
        name = f"{module}.{function}"
        out[f"{name}.self_s"] = {"value": totals[name]["self_s"] / requests, "unit": "s"}
    for name in COUNTED:
        out[f"{name}.calls"] = {"value": totals[name]["calls"] / requests, "unit": "count"}
    return out


def write_trace(tracer, args, stats) -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": stats["attempted"],
        "rounds": stats["rounds"],
        "layers": tracer.layer_totals(),
        "span_fields": ["name", "start_s", "end_s", "parent", "request"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    print(f"  trace: {len(tracer.spans)} spans written to {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    sys.exit(main())
