"""Write perfbench/reference.json: the digest of every pool entry's output.

    python3 perfbench/make_reference.py

Run it from the root of a working tree whose outputs are trusted; the
benchmark compares every operation against this table.  It covers the
whole CLI pool, all 520 interpolation problems (sorted weights) and all 63
bipartite types, not only the subsets a pass runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads as wl


def cli_reference() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TAUTDR_CACHE"}
    table = {}
    for _group, args in wl.CLI_POOL:
        proc = subprocess.run(
            [sys.executable, "-m", "tautdr.cli", *args],
            cwd=wl.SRC, env=env, capture_output=True, text=True, check=True,
        )
        payload = wl.cli_payload(proc.stdout)
        problems = wl.cli_checks(args, payload)
        if problems:
            raise SystemExit(f"{wl.cli_key(args)}: {problems}")
        table[wl.cli_key(args)] = wl.digest(payload)
    return table


def interp_reference() -> dict:
    from tautdr.pixton import constant_term, r_polynomial

    table = {}
    for g, A, d in wl.grid():
        rp = r_polynomial(g, A, d)
        table[wl.interp_key(g, A, d)] = wl.interp_digests(rp.taut, constant_term(rp))
    return table


def relative_reference() -> dict:
    table = {}
    for gamma, capped in wl.relative_ops():
        results = wl.run_relative_op(gamma, capped)
        table[wl.relative_key(gamma, capped)] = {
            "graphs": len(results),
            "digest": wl.digest(wl.relative_payload(results)),
        }
    capped_total = sum(v["graphs"] for k, v in table.items() if k.endswith(";capped"))
    if capped_total != wl.CAPPED_GRAPHS:
        raise SystemExit(f"the capped universe has {capped_total} graphs, not 265")
    return table


def main() -> None:
    if "TAUTDR_CACHE" in os.environ:
        raise SystemExit("unset TAUTDR_CACHE first")
    sys.path.insert(0, str(wl.SRC))
    reference = {
        "cli-cold": cli_reference(),
        "interp-warm": interp_reference(),
        "relative": relative_reference(),
    }
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
