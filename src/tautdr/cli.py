"""Command-line surface: stable-graph census, ramification-cycle reports,
and the loop-identity divergence table.

All numeric output is exact ("p/q"); identical configurations produce
byte-identical output.  Exit codes: 0 success, 1 verdict failure (a nonzero
vanishing pairing), 2 usage error, 3 a capability limit of the engine, 4 an
internal-consistency failure (polynomiality or held-out check); codes 3 and
4 print one ``error:`` line on stderr.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, asdict
from fractions import Fraction
from typing import NoReturn

import click

from .stable_graphs import enumerate_stable_graphs, automorphism_count
from .intersection import ProductCapabilityError
from .pixton import (
    _dr_report,
    r_polynomial,
    constant_term,
    vanishing_check,
    HeldOutMismatchError,
    PolynomialityError,
)
from .cohft import loop_axiom_demo


FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: one command plus its validated inputs."""

    command: str
    genus: int | None = None
    legs: int | None = None
    a_vector: tuple[int, ...] | None = None
    degree: int | None = None
    r_samples: tuple[int, ...] | None = None
    bounds: int | None = None
    format: str = "json"
    out: str | None = None

    def as_json_obj(self) -> dict:
        obj = asdict(self)
        # the destination path is plumbing, not part of the computation
        obj.pop("out", None)
        for key in ("a_vector", "r_samples"):
            if obj[key] is not None:
                obj[key] = list(obj[key])
        return obj


def _frac(x) -> str:
    return str(Fraction(x))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _render_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _render_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in columns})
    return buf.getvalue()


def _fail(exc: Exception, code: int) -> NoReturn:
    click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(code)


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise click.UsageError(f"{flag} expects a comma-separated integer list") from exc


@click.group()
def main() -> None:
    """Exact computations with tautological classes and relative cycles."""


# ---------------------------------------------------------------------------
# stable-graphs


@main.command("stable-graphs")
@click.option("--genus", type=int, required=True)
@click.option("--legs", type=int, required=True)
@click.option("--bounds", type=int, default=None, help="complexity bound override")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="json")
@click.option("--out", type=click.Path(), default=None)
def cmd_stable_graphs(genus, legs, bounds, fmt, out):
    """List all stable-graph isomorphism classes of one moduli type."""
    config = RunConfig(
        command="stable-graphs",
        genus=genus,
        legs=legs,
        bounds=bounds,
        format=fmt,
        out=out,
    )
    kwargs = {} if bounds is None else {"complexity_bound": bounds}
    try:
        graphs = enumerate_stable_graphs(genus, legs, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    listing = [
        {
            "index": i,
            "genera": list(graph.genera),
            "legs": list(graph.legs),
            "edges": [list(e) for e in graph.edges],
            "aut_order": str(automorphism_count(graph)),
        }
        for i, graph in enumerate(graphs)
    ]
    if fmt == "json":
        text = _render_json(
            {
                "command": "stable-graphs",
                "config": config.as_json_obj(),
                "count": len(graphs),
                "graphs": listing,
            }
        )
    elif fmt == "csv":
        rows = [
            {
                "index": item["index"],
                "genera": " ".join(map(str, item["genera"])),
                "legs": " ".join(map(str, item["legs"])),
                "edges": " ".join(f"{u}-{v}" for u, v in item["edges"]),
                "aut_order": item["aut_order"],
            }
            for item in listing
        ]
        text = _render_csv(rows, ["index", "genera", "legs", "edges", "aut_order"])
    else:
        lines = [
            f"graph {item['index']}: genera={tuple(item['genera'])} "
            f"legs={tuple(item['legs'])} edges={item['edges']} "
            f"aut={item['aut_order']}"
            for item in listing
        ]
        lines.append(f"count: {len(graphs)}")
        text = "\n".join(lines) + "\n"
    _emit(text, out)


# ---------------------------------------------------------------------------
# dr


@main.command("dr")
@click.option("--genus", type=int, required=True)
@click.option("--a", "a_text", type=str, required=True, help="comma list, negatives allowed")
@click.option("--degree", type=int, required=True)
@click.option("--r-samples", "r_samples_text", type=str, default=None)
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="json")
@click.option("--out", type=click.Path(), default=None)
def cmd_dr(genus, a_text, degree, r_samples_text, fmt, out):
    """Build the r-polynomial class, its constant term, and the verdict."""
    a_vector = _parse_int_list(a_text, "--a")
    r_samples = (
        _parse_int_list(r_samples_text, "--r-samples") if r_samples_text else None
    )
    config = RunConfig(
        command="dr",
        genus=genus,
        a_vector=a_vector,
        degree=degree,
        r_samples=r_samples,
        format=fmt,
        out=out,
    )
    try:
        if degree > genus:
            report = vanishing_check(genus, a_vector, degree, samples=r_samples)
        else:
            rp = r_polynomial(genus, a_vector, degree, samples=r_samples)
            report = _dr_report(genus, a_vector, degree, rp, constant_term(rp))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    except ProductCapabilityError as exc:
        _fail(exc, 3)
    except (HeldOutMismatchError, PolynomialityError) as exc:
        _fail(exc, 4)
    report["config"] = config.as_json_obj()

    verdict = report.get("verdict")
    if fmt == "json":
        text = _render_json(report)
    elif fmt == "csv":
        rows = [
            {"key": "verdict", "value": verdict},
            {
                "key": "constant_term_integral",
                "value": report["constant_term_integral"] or "",
            },
            {"key": "samples", "value": " ".join(map(str, report["samples"]))},
        ]
        if "skipped" in report:
            rows.append({"key": "skipped", "value": report["skipped"]})
        rows += [
            {"key": f"pairing:{label}", "value": value}
            for label, value in report.get("pairings", [])
        ]
        text = _render_csv(rows, ["key", "value"])
    else:
        lines = [
            f"problem: g={genus} A={list(a_vector)} d={degree}",
            f"samples: {report['samples']}",
            f"verdict: {verdict}",
        ]
        if "skipped" in report:
            lines.append(f"skipped: {report['skipped']}")
        if report["constant_term_integral"] is not None:
            lines.append(f"constant-term integral: {report['constant_term_integral']}")
        for label, value in report.get("pairings", []):
            lines.append(f"pairing {label}: {value}")
        text = "\n".join(lines) + "\n"
    _emit(text, out)
    if verdict == "FAIL":
        sys.exit(1)


# ---------------------------------------------------------------------------
# loop-demo


@main.command("loop-demo")
@click.argument("max_level", type=int)
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="json")
@click.option("--out", type=click.Path(), default=None)
def cmd_loop_demo(max_level, fmt, out):
    """Partial sums of the divergent self-gluing identity, one row per level."""
    if max_level < 1:
        raise click.UsageError("the level cutoff must be at least 1")
    config = RunConfig(command="loop-demo", degree=max_level, format=fmt, out=out)
    rows = []
    for k in range(1, max_level + 1):
        demo = loop_axiom_demo(k)
        rows.append(
            {"k": k, "lhs": _frac(demo["lhs"]), "partial_rhs": _frac(demo["partial_rhs"])}
        )
    if fmt == "json":
        text = _render_json(
            {
                "command": "loop-demo",
                "config": config.as_json_obj(),
                "rows": rows,
            }
        )
    elif fmt == "csv":
        text = _render_csv(
            [{"lhs": r["lhs"], "partial_rhs": r["partial_rhs"]} for r in rows],
            ["lhs", "partial_rhs"],
        )
    else:
        lines = [f"K={r['k']}: lhs={r['lhs']} partial_rhs={r['partial_rhs']}" for r in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, out)


if __name__ == "__main__":
    main()
