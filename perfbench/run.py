"""The tautdr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a working tree.  Three closed-loop workloads, one
client, no threads, every subprocess run one at a time:

* ``cli-cold``    each operation is a fresh ``python -m tautdr.cli``
                  process; a pass is the eight-command pool in seeded order;
* ``interp-warm`` one process runs ``r_polynomial`` over a fixed
                  stratified quarter of the 520-problem interpolation grid,
                  in seeded order with seeded marking relabellings;
* ``relative``    one process enumerates bipartite graphs of 45 types and
                  extracts every graph's constant term at two truncations.

A pass runs every operation once.  Passes repeat until S seconds have gone
by; a pass is never cut short.
Every operation is checked against ``perfbench/reference.json`` and against
independent checks.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run of the same inputs, taken by ``tracing.py``.  A full record goes
to ``perfbench/out/`` and a summary to stderr.  The exit code is 0 only if
every operation passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time

import tracing
import workloads as wl

SETUP_SAMPLES = {"cli-cold": 5, "interp-warm": 3, "relative": 5}
OP_TIMEOUT_S = 120
WORKER = str(wl.HERE / "worker.py")


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k != "TAUTDR_CACHE"}


def tail(values: list[float]) -> tuple[float, int, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  With ten samples or fewer no
    percentile qualifies and the maximum is returned as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    k = n - 10  # the k-th smallest value has n - k samples beyond it
    return ordered[k - 1], int(100 * k / n), n - k


# ---------------------------------------------------------------------------
# child processes


def _spawn_until_ready(argv: list[str], limit_s: float):
    """Start a worker and time it until it prints ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv],
        cwd=wl.ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(limit_s, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - start
    return proc, timer, line.strip() == "ready", ready_s


def _finish(proc, timer) -> str:
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    return rest


def setup_sample(workload: str) -> float:
    proc, timer, ready, ready_s = _spawn_until_ready(["setup", workload], OP_TIMEOUT_S)
    _finish(proc, timer)
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode})")
    return ready_s


def run_worker(workload, seed, seconds, trace, spans_path) -> tuple[dict, float]:
    argv = ["run", workload, str(seed), str(seconds), str(int(trace)), str(spans_path)]
    proc, timer, ready, ready_s = _spawn_until_ready(argv, seconds + 2 * OP_TIMEOUT_S)
    rest = _finish(proc, timer)
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed (exit {proc.returncode})")
    return json.loads(rest.strip().splitlines()[-1]), ready_s


def cli_op(args, traced: bool, reference: dict) -> dict:
    if traced:
        argv, cwd = [sys.executable, WORKER, "cli", *args], wl.ROOT
    else:
        argv, cwd = [sys.executable, "-m", "tautdr.cli", *args], wl.SRC
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=cwd, env=child_env(), capture_output=True, text=True,
            timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"s": float("nan"), "problems": ["timed out"]}
    elapsed = time.perf_counter() - start
    record = {"s": elapsed, "problems": []}
    stdout, code = proc.stdout, proc.returncode
    if traced and code == 0:
        child = json.loads(stdout.strip().splitlines()[-1])
        stdout, code = child["stdout"], child["exit"]
        record["trace"], record["spans"] = child["trace"], child["spans"]
        census_calls = child["trace"]["layers"].get("stable_graphs.census", {}).get("calls", 0)
        record["census_calls_per_distinct"] = (
            census_calls / child["trace"]["census_distinct"] if census_calls else 0.0
        )
        for key, size in child["trace"]["census_sizes"].items():
            expected = wl.CENSUS_COUNTS.get(tuple(map(int, key.split(","))))
            if expected is not None and size != expected:
                record["problems"].append(f"census ({key}) has {size} graphs, not {expected}")
    if code != 0:
        record["problems"].append(f"exit code {code}: {proc.stderr.strip()[-300:]}")
        return record
    payload = wl.cli_payload(stdout)
    if wl.digest(payload) != reference[wl.cli_key(args)]:
        record["problems"].append("digest differs from the reference")
    record["problems"] += wl.cli_checks(args, payload)
    return record


# ---------------------------------------------------------------------------
# one phase: the passes of a workload, traced or not


def cli_phase(seed: int, seconds: float, traced: bool, reference: dict) -> dict:
    rng = random.Random(f"cli-cold:{seed}")
    ops, passes = [], 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for key, args in wl.cli_pass(rng):
            record = cli_op(args, traced, reference)
            record["key"], record["pass"] = key, passes
            ops.append(record)
        passes += 1
    result = {
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if traced:
        result["trace"] = merge_summaries([op.pop("trace", None) for op in ops])
        result["spans"] = [[i, *span] for i, op in enumerate(ops) for span in op.pop("spans", [])]
    return result


def merge_summaries(summaries: list) -> dict:
    """Per-process trace summaries added up; distinct counts are per process,
    because every CLI process starts with empty caches."""
    merged = {"layers": {}, "counts": {}, "census_distinct": 0, "census_sizes": {},
              "edge_forms_distinct": 0}
    for summary in filter(None, summaries):
        for name, entry in summary["layers"].items():
            target = merged["layers"].setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for field in target:
                target[field] += entry[field]
        for name, value in summary["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        merged["census_distinct"] += summary["census_distinct"]
        merged["edge_forms_distinct"] += summary["edge_forms_distinct"]
        merged["census_sizes"].update(summary["census_sizes"])
    return merged


def phase(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    spans_path = wl.OUT_DIR / f"{workload}-seed{seed}-spans.jsonl"
    if workload == "cli-cold":
        result = cli_phase(seed, seconds, traced, wl.load_reference()["cli-cold"])
        if traced:
            tracing.write_spans(spans_path, result.pop("spans"))
        return result
    result, ready_s = run_worker(workload, seed, seconds, traced, spans_path)
    result["ready_s"] = ready_s
    return result


# ---------------------------------------------------------------------------
# metrics


def latencies(ops: list[dict]) -> tuple[list[float], list[float]]:
    """The latencies of the operations that did not fail, and each pass's
    wall time, the sum of its latencies."""
    times, walls = [], {}
    for op in ops:
        if op["s"] == op["s"]:  # a failed operation has no time
            times.append(op["s"])
            walls[op["pass"]] = walls.get(op["pass"], 0.0) + op["s"]
    return times, list(walls.values())


def end_to_end(workload: str, result: dict, setup: list[float]) -> dict:
    times, walls = latencies(result["ops"])
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
    }
    # Latency percentiles are recorded but not gated: between two sets of ten
    # runs their medians moved by up to 43% on this machine (see README).
    notes = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "op_tail": f"p{tail_pct} of {len(times)} operations, {beyond} beyond it",
        "passes": len(walls),
        "setup_samples": setup,
    }
    if workload == "cli-cold":
        group_of = {wl.cli_key(args): group for group, args in wl.CLI_POOL}
        notes["group_median_s"] = {
            f"cli.{group}_s": statistics.median(
                op["s"] for op in result["ops"] if group_of[op["key"]] == group
            )
            for group in wl.CLI_GROUPS
        }
    return {"metrics": metrics, "notes": notes}


def per_layer(traced: dict, untraced: dict) -> dict:
    summary = traced["trace"]
    layers, counts = summary["layers"], summary["counts"]

    def get(name, field):
        return layers.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    traced_wall = sum(latencies(traced["ops"])[1])
    census_calls = get("stable_graphs.census", "calls")
    forms_calls = get("stable_graphs.edge_weight_forms", "calls")
    return {
        "stable_graphs.census.calls": (census_calls, "count"),
        "stable_graphs.census.self_s": (get("stable_graphs.census", "self_s"), "s"),
        "stable_graphs.census.graphs": (counts.get("census.graphs", 0), "count"),
        "stable_graphs.census.repeat_ratio": (ratio(census_calls, summary["census_distinct"]), "ratio"),
        "stable_graphs.edge_weight_forms.calls": (forms_calls, "count"),
        "stable_graphs.edge_weight_forms.self_s": (get("stable_graphs.edge_weight_forms", "self_s"), "s"),
        "stable_graphs.edge_weight_forms.calls_per_distinct": (
            ratio(forms_calls, summary["edge_forms_distinct"]), "ratio"),
        "weightsums.power_sums.calls": (get("weightsums.power_sums", "calls"), "count"),
        "weightsums.power_sums.self_s": (get("weightsums.power_sums", "self_s"), "s"),
        "qpoly.newton_interpolate.calls": (get("qpoly.newton_interpolate", "calls"), "count"),
        "qpoly.newton_interpolate.self_s": (get("qpoly.newton_interpolate", "self_s"), "s"),
        "pixton.self_s": (get("pixton", "self_s") + get("pixton.pixton_class", "self_s"), "s"),
        "pixton.pixton_class.calls": (get("pixton.pixton_class", "calls"), "count"),
        "intersection.product.calls": (get("intersection.product", "calls"), "count"),
        "intersection.product.self_s": (get("intersection.product", "self_s"), "s"),
        "intersection.integrate.self_s": (get("intersection.integrate", "self_s"), "s"),
        "intersection.generators_of_degree.self_s": (
            get("intersection.generators_of_degree", "self_s"), "s"),
        "intersection.generators_of_degree.generators": (counts.get("generators", 0), "count"),
        "intersection.kappa_psi_integral.calls": (get("intersection.kappa_psi_integral", "calls"), "count"),
        "intersection.kappa_psi_integral.self_s": (get("intersection.kappa_psi_integral", "self_s"), "s"),
        "intersection.kappa_psi_integral.share": (
            ratio(get("intersection.kappa_psi_integral", "total_s"), traced_wall), "fraction"),
        "bipartite.enumerate.calls": (get("bipartite.enumerate", "calls"), "count"),
        "bipartite.enumerate.self_s": (get("bipartite.enumerate", "self_s"), "s"),
        "bipartite.enumerate.graphs": (counts.get("bipartite.graphs", 0), "count"),
        "series.assemble_t0.calls": (get("series.assemble_t0", "calls"), "count"),
        "series.assemble_t0.self_s": (get("series.assemble_t0", "self_s"), "s"),
        "series.c_gamma0.calls": (get("series.c_gamma0", "calls"), "count"),
        "series.c_gamma0.self_s": (get("series.c_gamma0", "self_s"), "s"),
        "series.c_gamma_infty.calls": (get("series.c_gamma_infty", "calls"), "count"),
        "series.c_gamma_infty.self_s": (get("series.c_gamma_infty", "self_s"), "s"),
        "cli.self_s": (get("cli", "self_s"), "s"),
        "trace.overhead_frac": (
            statistics.median(latencies(traced["ops"])[1])
            / statistics.median(latencies(untraced["ops"])[1]) - 1,
            "fraction"),
    }


# ---------------------------------------------------------------------------


def provenance() -> dict:
    commit = None
    if (wl.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def failures(result: dict) -> list[tuple[str, list[str]]]:
    return [(op["key"], op["problems"]) for op in result["ops"] if op["problems"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (wl.SRC / "tautdr" / "__init__.py").is_file():
        print(f"no tautdr package under {wl.SRC}: run from a working tree", file=sys.stderr)
        return 2
    wl.OUT_DIR.mkdir(exist_ok=True)

    workload = args.workload
    # Only the untraced run reports setup_s, so only it samples set-up.
    extra_setups = 0 if args.trace else SETUP_SAMPLES[workload] - (workload != "cli-cold")
    setup = [setup_sample(workload) for _ in range(extra_setups)]
    untraced = phase(workload, args.seed, args.seconds, traced=False)
    if "ready_s" in untraced:
        setup.append(untraced["ready_s"])
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance()}
    record.update(end_to_end(workload, untraced, setup))
    results = [untraced]
    if args.trace:
        traced = phase(workload, args.seed, args.seconds, traced=True)
        results.append(traced)
        record["per_layer"] = per_layer(traced, untraced)
        record["trace_summary"] = traced["trace"]
        metrics = record["per_layer"]
    else:
        metrics = record["metrics"]

    failed = [f for result in results for f in failures(result)]
    attempted = sum(len(result["ops"]) for result in results)
    record["attempted"], record["failed"] = attempted, failed
    record["ops"] = [{k: op[k] for k in ("key", "pass", "s")} for op in untraced["ops"]]
    if args.trace:
        record["traced_ops"] = [
            {k: v for k, v in op.items() if k != "problems"} for op in traced["ops"]
        ]
    with open(wl.OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    for name, value in record["notes"].items():
        print(f"{workload} {name}: {value}", file=sys.stderr)
    for key, problems in failed:
        print(f"FAILED {key}: {problems}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
