"""Measure the figures ROADMAP.md quotes for the seed code, each in a fresh
process, so a benchmark record can be set beside them.

    python3 perfbench/baseline.py

Prints one JSON object: wall seconds of ``dr_cycle(3, (0,))``, of
``vanishing_check(1, (1, -1, 0, 0), 2)``, of the library part of acceptance
check 4 (all 520 problems plus the probes on every seventh), and of one
traced ``tautdr stable-graphs --genus 2 --legs 3`` with its census time and
size.  None of these is a gated metric; the last one alone takes longer
than a whole ``cli-cold`` pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import workloads as wl


def _dr_cycle_g3() -> None:
    from tautdr.pixton import dr_cycle

    dr_cycle(3, (0,))


def _vanishing() -> None:
    from tautdr.pixton import vanishing_check

    if vanishing_check(1, (1, -1, 0, 0), 2)["verdict"] != "pairing-null":
        raise SystemExit("vanishing_check(1, (1,-1,0,0), 2) is not pairing-null")


def _check4() -> None:
    from tautdr.pixton import admissible_r_bound, pixton_class, r_polynomial

    for idx, (g, A, d) in enumerate(wl.grid()):
        rp = r_polynomial(g, A, d)
        if idx % 7 == 0:
            bound = admissible_r_bound(A, d)
            for r in (bound + 31, bound + 38, bound + 45):
                if rp.at(r) != pixton_class(g, A, d, r):
                    raise SystemExit(f"probe mismatch at {(g, A, d, r)}")


MEASUREMENTS = {"dr_cycle_g3_s": _dr_cycle_g3, "vanishing_g1_s": _vanishing, "check4_s": _check4}


def _timed_child(name: str) -> float:
    env = {k: v for k, v in os.environ.items() if k != "TAUTDR_CACHE"}
    proc = subprocess.run([sys.executable, __file__, name], cwd=wl.ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def _census_g2_l3() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TAUTDR_CACHE"}
    args = ["stable-graphs", "--genus", "2", "--legs", "3"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(wl.HERE / "worker.py"), "cli", *args],
                          cwd=wl.ROOT, env=env, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    census = child["trace"]["layers"]["stable_graphs.census"]
    return {
        "wall_s": wall,
        "census_self_s": census["self_s"],
        "graphs": json.loads(child["stdout"])["count"],
        "cli_self_s": child["trace"]["layers"]["cli"]["self_s"],
    }


def main(argv: list[str]) -> None:
    if argv:
        sys.path.insert(0, str(wl.SRC))
        start = time.perf_counter()
        MEASUREMENTS[argv[0]]()
        print(time.perf_counter() - start)
        return
    record = {name: _timed_child(name) for name in MEASUREMENTS}
    record["stable_graphs_g2_l3"] = _census_g2_l3()
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
