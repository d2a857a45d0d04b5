"""Append a smoke-benchmark record to the repo's perf trajectory — and
render the accumulated history as a report.

Runs a fixed, fast benchmark (the tiny-scale flat campaign on the adaptive
scheduler, plus one raw cycle-throughput probe) and appends one JSON record to
``benchmarks/results/trajectory.json``.  CI runs this on every push as a
non-blocking job, so the file accumulates a per-commit throughput history
that perf PRs can cite::

    python tools/bench_history.py --label "adaptive scheduler"
    python tools/bench_history.py --out /tmp/trajectory.json  # scratch copy
    python tools/bench_history.py --report-only --report-md report.md

``--report-md`` / ``--report-html`` tabulate every record in the
trajectory — the smoke records this tool appends *and* the uniform records
the ``benchmarks/bench_*.py`` mains append via ``--trajectory`` — grouped
by benchmark kind, one table per kind.  ``--report-only`` skips the smoke
run (report generation from the existing file is instantaneous, so CI
uploads a fresh report with every trajectory append).

The smoke workload is deliberately small (a few seconds) — the numbers are
for *trajectory*, not absolutes; use ``benchmarks/bench_scheduler.py
--scale full`` for acceptance-grade measurements.
"""

from __future__ import annotations

import argparse
import html
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "benchmarks" / "results" / "trajectory.json"

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from common import append_trajectory, git_commit, load_trajectory  # noqa: E402


def run_smoke() -> Dict:
    """The fixed smoke benchmark: tiny campaign, cycle-throughput and
    feature-extraction probes."""
    from bench_features import run_benchmark as run_feature_benchmark
    from bench_scheduler import run_campaign_row
    from bench_substrate import measure_cycle_throughput
    from common import preset_workload_parts

    parts = preset_workload_parts("tiny")
    row = run_campaign_row(parts, n_injections=6)
    row.pop("counters", None)
    cycle_lps = measure_cycle_throughput(parts.netlist, 256, n_cycles=12)
    features = run_feature_benchmark("xgmac_tiny", repeats=1)
    vec_row = next(r for r in features["rows"] if r["engine"] == "vectorized")
    return {
        "campaign_rows": [row],
        "cycle_lane_cycles_per_sec": round(cycle_lps),
        "feature_ffs_per_sec": vec_row["ffs_per_sec"],
        "feature_vectorized_speedup": features["vectorized_speedup"],
    }


def append_record(out_path: Path, label: Optional[str]) -> Dict:
    import time

    start = time.perf_counter()
    smoke = run_smoke()
    smoke["bench_wall_seconds"] = round(time.perf_counter() - start, 2)
    return append_trajectory("smoke", smoke, label=label, path=out_path)


# -------------------------------------------------------------- reporting

#: Envelope fields every record carries (the rest is measurements).
_ENVELOPE = ("timestamp", "commit", "bench", "label", "python", "machine")


def _normalize(record: Dict) -> Dict:
    """One record in the uniform shape, whether it predates the envelope.

    Records written before the shared ``benchmarks/common.append_trajectory``
    helper carry their measurements flat next to the envelope fields and
    have no ``bench`` name; fold those measurements under ``summary`` and
    call them ``smoke`` (this tool was the only writer back then).
    """
    if isinstance(record.get("summary"), dict):
        out = dict(record)
        out.setdefault("bench", "smoke")
        return out
    summary = {k: v for k, v in record.items() if k not in _ENVELOPE}
    out = {k: record.get(k) for k in _ENVELOPE}
    out["bench"] = record.get("bench") or "smoke"
    out["summary"] = summary
    return out


def _flatten(summary: Dict, prefix: str = "", depth: int = 2) -> Dict[str, object]:
    """Scalar leaves of *summary* as dotted columns (lists summarized by
    length — per-row tables belong in the benchmark's own ``--out`` JSON)."""
    flat: Dict[str, object] = {}
    for key, value in summary.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict) and depth > 0:
            flat.update(_flatten(value, prefix=f"{name}.", depth=depth - 1))
        elif isinstance(value, (int, float, str)) and not isinstance(value, bool):
            flat[name] = value
        elif isinstance(value, list):
            flat[f"{name}[n]"] = len(value)
    return flat


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value) if value is not None else ""


def build_report_rows(doc: Dict) -> Dict[str, List[Dict]]:
    """Group normalized records by bench kind, each with flat columns."""
    groups: Dict[str, List[Dict]] = {}
    for record in doc.get("records", []):
        if not isinstance(record, dict):
            continue
        norm = _normalize(record)
        row = {
            "timestamp": norm.get("timestamp") or "",
            "commit": norm.get("commit") or "",
            "label": norm.get("label") or "",
        }
        row.update(_flatten(norm.get("summary", {})))
        groups.setdefault(norm["bench"], []).append(row)
    return groups


def render_markdown(doc: Dict) -> str:
    groups = build_report_rows(doc)
    n_records = sum(len(rows) for rows in groups.values())
    lines = [
        "# Benchmark trajectory",
        "",
        f"{n_records} record(s) across {len(groups)} benchmark kind(s); "
        f"current commit `{git_commit() or 'unknown'}`.  Numbers are smoke-"
        "scale trends, not acceptance measurements (see `benchmarks/`).",
        "",
    ]
    for bench in sorted(groups):
        rows = groups[bench]
        columns = ["timestamp", "commit", "label"]
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        lines.append(f"## {bench}")
        lines.append("")
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "---|" * len(columns))
        for row in rows:
            lines.append(
                "| " + " | ".join(_fmt(row.get(c, "")) for c in columns) + " |"
            )
        lines.append("")
    return "\n".join(lines)


def render_html(doc: Dict) -> str:
    groups = build_report_rows(doc)
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'><title>Benchmark trajectory</title>",
        "<style>body{font-family:sans-serif;margin:2em}table{border-collapse:"
        "collapse}th,td{border:1px solid #999;padding:4px 8px;text-align:right}"
        "th{background:#eee}td:first-child,th:first-child{text-align:left}"
        "</style></head><body>",
        "<h1>Benchmark trajectory</h1>",
    ]
    for bench in sorted(groups):
        rows = groups[bench]
        columns = ["timestamp", "commit", "label"]
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        parts.append(f"<h2>{html.escape(bench)}</h2><table><tr>")
        parts.extend(f"<th>{html.escape(c)}</th>" for c in columns)
        parts.append("</tr>")
        for row in rows:
            parts.append("<tr>")
            parts.extend(
                f"<td>{html.escape(_fmt(row.get(c, '')))}</td>" for c in columns
            )
            parts.append("</tr>")
        parts.append("</table>")
    parts.append("</body></html>")
    return "".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default=None, help="free-form record label")
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="trajectory file to append to"
    )
    parser.add_argument(
        "--report-md",
        type=Path,
        default=None,
        help="render the whole trajectory as a markdown report here",
    )
    parser.add_argument(
        "--report-html",
        type=Path,
        default=None,
        help="render the whole trajectory as an HTML report here",
    )
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="skip the smoke benchmark; just render reports from --out",
    )
    args = parser.parse_args(argv)
    if args.report_only and args.report_md is None and args.report_html is None:
        parser.error("--report-only needs --report-md and/or --report-html")

    if not args.report_only:
        record = append_record(args.out, args.label)
        smoke = record["summary"]
        (row,) = smoke["campaign_rows"]
        print(
            f"commit={record['commit']} campaign={row['injections_per_sec']} inj/s, "
            f"cycle={smoke['cycle_lane_cycles_per_sec']} lane-cycles/s, "
            f"features={smoke['feature_ffs_per_sec']} FF rows/s "
            f"({smoke['feature_vectorized_speedup']}x vs networkx)"
        )
        print(f"appended to {args.out}")

    if args.report_md is not None or args.report_html is not None:
        doc = load_trajectory(args.out)
        if args.report_md is not None:
            args.report_md.parent.mkdir(parents=True, exist_ok=True)
            args.report_md.write_text(render_markdown(doc) + "\n")
            print(f"wrote {args.report_md}")
        if args.report_html is not None:
            args.report_html.parent.mkdir(parents=True, exist_ok=True)
            args.report_html.write_text(render_html(doc) + "\n")
            print(f"wrote {args.report_html}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
