"""Child process of the benchmark.

    python perfbench/worker.py setup WORKLOAD
    python perfbench/worker.py run WORKLOAD SEED SECONDS TRACE SPANS_PATH
    python perfbench/worker.py cli ARG...

``setup`` imports the package, does the workload's set-up and prints
``ready``.  ``run`` does the same, prints ``ready``, then measures passes of
the in-process workload until SECONDS have gone by and prints one JSON
line.  ``cli`` runs one CLI command through ``tautdr.cli.main`` with spans
on and prints one JSON line; it serves the traced run of ``cli-cold``.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import tracing
import workloads as wl


def _import_package() -> None:
    """Load tautdr from this working tree's src/ and nowhere else."""
    if "TAUTDR_CACHE" in os.environ:
        raise SystemExit("TAUTDR_CACHE must be unset in benchmark processes")
    sys.path.insert(0, str(wl.SRC))
    import tautdr

    location = Path(tautdr.__file__).resolve()
    if wl.SRC.resolve() not in location.parents:
        raise SystemExit(f"tautdr was imported from {location}, outside {wl.SRC}")


def _setup(workload: str) -> None:
    _import_package()
    if workload == "cli-cold":
        import tautdr.cli  # noqa: F401
    elif workload == "interp-warm":
        from tautdr import pixton

        # Fill the eight censuses through the public entry point; the
        # degree-0 problems on zero weights are the cheapest that build them.
        for g, n in wl.GRID_TYPES:
            pixton.r_polynomial(g, (0,) * n, 0)
    else:
        from tautdr import bipartite, series  # noqa: F401


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# in-process workloads


def _interp_op(g, A, relabelled, perm, d, reference, collector) -> tuple[float, list[str]]:
    from tautdr import pixton
    from tautdr.intersection import fundamental

    start = time.perf_counter()
    rp = pixton.r_polynomial(g, relabelled, d)
    elapsed = time.perf_counter() - start
    if collector is not None:
        collector.active = False

    problems = []
    taut = rp.taut.relabel_markings(wl.inverse(perm))
    const = pixton.constant_term(taut)
    if wl.interp_digests(taut, const) != reference[wl.interp_key(g, A, d)]:
        problems.append("digest differs from the reference")
    if g == 0 and d == 0 and const != fundamental(0, len(A)):
        problems.append("genus-0 constant term is not the fundamental class")
    if (g, A, d) == (1, (0,), 1) and const.integrate() != Fraction(-1, 24):
        problems.append("dr_cycle(1,(0,)) does not integrate to -1/24")
    return elapsed, problems


def _relative_op(gamma, capped, reference, collector) -> tuple[float, list[str]]:
    start = time.perf_counter()
    results = wl.run_relative_op(gamma, capped)
    elapsed = time.perf_counter() - start
    if collector is not None:
        collector.active = False

    problems = []
    expected = reference[wl.relative_key(gamma, capped)]
    if len(results) != expected["graphs"]:
        problems.append(f"{len(results)} graphs, reference has {expected['graphs']}")
    if wl.digest(wl.relative_payload(results)) != expected["digest"]:
        problems.append("digest differs from the reference")
    if any(base.poly != deep.poly for _g, _a, base, deep in results):
        problems.append("constant term changed under deeper truncation")
    return elapsed, problems


def _run(workload: str, seed: int, seconds: float, trace: bool, spans_path: str) -> None:
    _setup(workload)
    _ready()
    reference = wl.load_reference()[workload]
    if workload == "relative":
        capped_total = sum(
            v["graphs"] for k, v in reference.items() if k.endswith(";capped")
        )
        if capped_total != wl.CAPPED_GRAPHS:
            raise SystemExit(f"the capped universe has {capped_total} graphs, not 265")

    collector = None
    if trace:
        collector = tracing.Collector()
        tracing.install(collector)

    rng = random.Random(f"{workload}:{seed}")
    used: dict = {}
    ops, passes, maxrss_kb = [], 0, None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if workload == "interp-warm":
            fn, items = _interp_op, wl.interp_pass(rng, used)
        else:
            fn, items = _relative_op, wl.relative_pass(rng)
        for key, op in items:
            try:
                elapsed, problems = fn(*op, reference, collector)
            except Exception:  # an exception is a failed operation, not a crash
                elapsed, problems = float("nan"), [traceback.format_exc(limit=3)]
            finally:
                if collector is not None:
                    collector.active = True
            ops.append({"key": key, "pass": passes, "s": elapsed, "problems": problems})
        passes += 1
        if maxrss_kb is None:
            # Later passes add relabelled problems to the package's caches, so
            # the peak is taken after the first pass, whose inputs are fixed.
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"ops": ops, "maxrss_kb": maxrss_kb}
    if collector is not None:
        result["trace"] = collector.summary()
        tracing.write_spans(spans_path, collector.spans)
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# one traced CLI command


def _cli(args: list[str]) -> None:
    _setup("cli-cold")
    import tautdr.cli

    collector = tracing.Collector()
    tracing.install(collector)
    buffer = io.StringIO()
    frame = collector.open("cli")
    try:
        with redirect_stdout(buffer):
            tautdr.cli.main(args, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        collector.close(frame)
    print(
        json.dumps(
            {
                "exit": code,
                "stdout": buffer.getvalue(),
                "trace": collector.summary(),
                "spans": collector.spans,
            }
        )
    )


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "setup":
        _setup(argv[1])
        _ready()
    elif mode == "run":
        _run(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5])
    elif mode == "cli":
        _cli(argv[1:])
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
