"""Commit-over-commit bench trend comparison and regression gate.

Five PRs of perf work went untracked because the CI regression jobs only
pinned hand-picked cell counts for two instances.  This module is the
general gate: it compares two ``BENCH_*.json`` documents of the current
schema (:data:`~repro.evaluation.runner.DOCUMENT_VERSION`, the only one
the runner writes) cell by cell and reports the deltas that matter for
the solver's trajectory —

* **wall-clock** per cell (``seconds``),
* **probe count** per certified SMT cell (``num_horizons``: how many
  stage horizons the strategy asked the solver to decide — fully
  deterministic, so any increase is a real search regression, not noise),
* **propagation throughput** of the deciding SAT backend
  (``sat_propagations_per_second``; reported, not gated — it is a per-probe sample).

The default gate trips (:attr:`TrendReport.ok` is ``False``) when

* a cell certified in both runs probes **more horizons** than before,
* a cell's wall-clock grows by more than ``wall_clock_threshold``
  (default **+25 %**) and the cell is slow enough to measure
  (``min_seconds`` floor filters timing noise on near-instant cells),
* a cell that was ``ok`` stops being ``ok`` (timeout/error/failed — or an
  SMT cell that degrades to ``termination: "deadline"``, the
  cooperative form of a timeout), or
* a cell disappears entirely (coverage loss), unless *allow_missing*.

``repro-nasp bench-trend old.json new.json`` wraps this with a
human-readable table, an optional machine-readable ``BENCH_TREND.json``
and Markdown summary, and a non-zero exit code when the gate trips — CI
runs it against the committed baseline in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.evaluation.runner import check_document_version

#: Default relative wall-clock growth beyond which a cell regresses.
DEFAULT_WALL_CLOCK_THRESHOLD = 0.25

#: Default per-cell seconds floor below which wall-clock noise is ignored.
DEFAULT_MIN_SECONDS = 0.05


@dataclass
class CellDelta:
    """Per-cell comparison of one bench cell across two runs."""

    name: str
    status_old: str
    status_new: str
    seconds_old: float
    seconds_new: float
    #: ``seconds_new / seconds_old`` (None when the old time is ~0).
    seconds_ratio: Optional[float]
    horizons_old: Optional[int] = None
    horizons_new: Optional[int] = None
    throughput_old: Optional[float] = None
    throughput_new: Optional[float] = None
    #: Both runs certified an optimum (probe counts are comparable).
    certified: bool = False
    #: Human-readable regression messages for this cell (empty: clean).
    regressions: list[str] = field(default_factory=list)


@dataclass
class TrendReport:
    """Outcome of :func:`compare_documents`."""

    cells: list[CellDelta]
    #: Cells present in the old run but absent from the new one.
    missing: list[str]
    #: Cells new in the new run (informational — suites may grow).
    added: list[str]
    #: Aggregate totals and ratios across the compared cells.
    aggregate: dict
    #: Every regression message, cell-level and coverage-level.
    regressions: list[str]
    #: Gate configuration, recorded for reproducibility.
    thresholds: dict

    @property
    def ok(self) -> bool:
        """True when no regression tripped the gate."""
        return not self.regressions

    def to_dict(self) -> dict:
        """JSON-serialisable form (the ``BENCH_TREND.json`` artifact)."""
        return {
            "ok": self.ok,
            "thresholds": self.thresholds,
            "aggregate": self.aggregate,
            "regressions": self.regressions,
            "missing": self.missing,
            "added": self.added,
            "cells": [asdict(cell) for cell in self.cells],
        }


def _certified(payload: dict) -> bool:
    return bool(payload.get("found") and payload.get("optimal"))


def _effective_status(entry: dict) -> str:
    """The gate-relevant status of a cell.

    SMT cells that hit the harness budget end *cooperatively*:
    the worker returns a degraded payload with ``termination: "deadline"``
    and the harness records ``status: "ok"`` (the payload is valid — best
    known witness plus a sound interval).  For the ok→non-ok gate those
    cells count like timeouts: a cell that used to certify within budget
    and now runs out of time is a regression, however gracefully it
    degraded.
    """
    status = entry.get("status", "?")
    if status == "ok" and entry.get("payload", {}).get("termination") == "deadline":
        return "deadline"
    return status


def _index_results(document: dict) -> dict[str, dict]:
    entries: dict[str, dict] = {}
    for entry in document.get("results", []):
        entries[entry["name"]] = entry
    return entries


def compare_documents(
    old_document: dict,
    new_document: dict,
    wall_clock_threshold: float = DEFAULT_WALL_CLOCK_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    allow_missing: bool = False,
) -> TrendReport:
    """Compare two bench documents cell by cell and evaluate the gate.

    Raises ``ValueError`` when either document is not of the current schema
    (:func:`~repro.evaluation.runner.check_document_version`) or when the
    runs share no cells at all.
    """
    for label, document in (("old", old_document), ("new", new_document)):
        check_document_version(document, "bench-trend", label=f"the {label}")
    old_entries = _index_results(old_document)
    new_entries = _index_results(new_document)
    shared = [name for name in old_entries if name in new_entries]
    if not shared:
        raise ValueError("the two documents share no cells to compare")
    missing = sorted(name for name in old_entries if name not in new_entries)
    added = sorted(name for name in new_entries if name not in old_entries)

    cells: list[CellDelta] = []
    regressions: list[str] = []
    totals = {
        "seconds_old": 0.0,
        "seconds_new": 0.0,
        "horizons_old": 0,
        "horizons_new": 0,
        "cells_compared": 0,
        "cells_certified": 0,
        "cells_regressed": 0,
    }
    throughput_ratios: list[float] = []
    for name in sorted(shared):
        old, new = old_entries[name], new_entries[name]
        old_payload, new_payload = old.get("payload", {}), new.get("payload", {})
        seconds_old = float(old.get("seconds", 0.0))
        seconds_new = float(new.get("seconds", 0.0))
        ratio = seconds_new / seconds_old if seconds_old > 0 else None
        certified = _certified(old_payload) and _certified(new_payload)
        delta = CellDelta(
            name=name,
            status_old=_effective_status(old),
            status_new=_effective_status(new),
            seconds_old=seconds_old,
            seconds_new=seconds_new,
            seconds_ratio=ratio,
            horizons_old=old_payload.get("num_horizons"),
            horizons_new=new_payload.get("num_horizons"),
            throughput_old=old_payload.get("sat_propagations_per_second"),
            throughput_new=new_payload.get("sat_propagations_per_second"),
            certified=certified,
        )
        if delta.status_old == "ok" and delta.status_new != "ok":
            delta.regressions.append(
                f"{name}: was ok, now {delta.status_new}"
                + (f" ({new.get('error')})" if new.get("error") else "")
            )
        if certified:
            totals["cells_certified"] += 1
            if (
                delta.horizons_old is not None
                and delta.horizons_new is not None
                and delta.horizons_new > delta.horizons_old
            ):
                delta.regressions.append(
                    f"{name}: probe count rose "
                    f"{delta.horizons_old} -> {delta.horizons_new}"
                )
            if (
                ratio is not None
                and ratio > 1.0 + wall_clock_threshold
                and max(seconds_old, seconds_new) >= min_seconds
            ):
                delta.regressions.append(
                    f"{name}: wall-clock {seconds_old:.3f}s -> "
                    f"{seconds_new:.3f}s (x{ratio:.2f}, threshold "
                    f"x{1.0 + wall_clock_threshold:.2f})"
                )
        totals["seconds_old"] += seconds_old
        totals["seconds_new"] += seconds_new
        if delta.horizons_old is not None:
            totals["horizons_old"] += delta.horizons_old
        if delta.horizons_new is not None:
            totals["horizons_new"] += delta.horizons_new
        if delta.throughput_old and delta.throughput_new:
            throughput_ratios.append(delta.throughput_new / delta.throughput_old)
        totals["cells_compared"] += 1
        if delta.regressions:
            totals["cells_regressed"] += 1
            regressions.extend(delta.regressions)
        cells.append(delta)
    if missing and not allow_missing:
        regressions.append(
            f"{len(missing)} cell(s) from the old run are missing: "
            + ", ".join(missing[:5])
            + ("…" if len(missing) > 5 else "")
        )
    aggregate = dict(totals)
    aggregate["seconds_ratio"] = (
        totals["seconds_new"] / totals["seconds_old"]
        if totals["seconds_old"] > 0
        else None
    )
    aggregate["throughput_ratio_mean"] = (
        sum(throughput_ratios) / len(throughput_ratios)
        if throughput_ratios
        else None
    )
    aggregate["cells_missing"] = len(missing)
    aggregate["cells_added"] = len(added)
    return TrendReport(
        cells=cells,
        missing=missing,
        added=added,
        aggregate=aggregate,
        regressions=regressions,
        thresholds={
            "wall_clock_threshold": wall_clock_threshold,
            "min_seconds": min_seconds,
            "allow_missing": allow_missing,
        },
    )


def compare_paths(
    old_path: str | os.PathLike,
    new_path: str | os.PathLike,
    **kwargs: object,
) -> TrendReport:
    """:func:`compare_documents` over two persisted bench JSON files."""
    with open(old_path, encoding="utf-8") as handle:
        old_document = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new_document = json.load(handle)
    return compare_documents(old_document, new_document, **kwargs)


def _format_ratio(ratio: Optional[float]) -> str:
    return "-" if ratio is None else f"x{ratio:.2f}"


def _format_horizons(old: Optional[int], new: Optional[int]) -> str:
    if old is None and new is None:
        return "-"
    return f"{'-' if old is None else old}->{'-' if new is None else new}"


def format_trend(report: TrendReport, max_cells: Optional[int] = None) -> str:
    """Human-readable per-cell and aggregate delta table.

    *max_cells* truncates the per-cell listing (regressed cells are always
    shown); the aggregate block is always complete.
    """
    lines = [
        f"{'Cell':<46}{'Status':>16}{'Time[s]':>17}{'x':>7}{'Probes':>9}"
    ]
    shown = 0
    hidden = 0
    for cell in report.cells:
        interesting = bool(cell.regressions)
        if max_cells is not None and shown >= max_cells and not interesting:
            hidden += 1
            continue
        status = (
            cell.status_new
            if cell.status_old == cell.status_new
            else f"{cell.status_old}->{cell.status_new}"
        )
        flag = "  << REGRESSED" if cell.regressions else ""
        lines.append(
            f"{cell.name:<46}{status:>16}"
            f"{cell.seconds_old:>8.2f}{cell.seconds_new:>9.2f}"
            f"{_format_ratio(cell.seconds_ratio):>7}"
            f"{_format_horizons(cell.horizons_old, cell.horizons_new):>9}"
            f"{flag}"
        )
        shown += 1
    if hidden:
        lines.append(f"… {hidden} unremarkable cell(s) not shown")
    aggregate = report.aggregate
    lines.append("")
    lines.append(
        f"aggregate: {aggregate['cells_compared']} cells compared "
        f"({aggregate['cells_certified']} certified in both runs, "
        f"{aggregate['cells_missing']} missing, {aggregate['cells_added']} new)"
    )
    lines.append(
        f"  wall-clock {aggregate['seconds_old']:.2f}s -> "
        f"{aggregate['seconds_new']:.2f}s "
        f"({_format_ratio(aggregate['seconds_ratio'])})"
    )
    lines.append(
        f"  probes     {aggregate['horizons_old']} -> "
        f"{aggregate['horizons_new']}"
    )
    if aggregate["throughput_ratio_mean"] is not None:
        lines.append(
            "  propagation throughput "
            f"{_format_ratio(aggregate['throughput_ratio_mean'])} (mean)"
        )
    if report.regressions:
        lines.append("")
        lines.append(f"REGRESSIONS ({len(report.regressions)}):")
        lines.extend(f"  - {message}" for message in report.regressions)
    else:
        lines.append("")
        lines.append("no regressions: the trend gate passes")
    return "\n".join(lines)


def format_trend_markdown(report: TrendReport) -> str:
    """GitHub-flavoured Markdown summary (for ``$GITHUB_STEP_SUMMARY``)."""
    aggregate = report.aggregate
    verdict = "✅ passes" if report.ok else "❌ **FAILS**"
    lines = [
        "## Bench trend gate",
        "",
        f"Verdict: {verdict}",
        "",
        "| metric | old | new | delta |",
        "| --- | ---: | ---: | ---: |",
        (
            f"| wall-clock (s) | {aggregate['seconds_old']:.2f} | "
            f"{aggregate['seconds_new']:.2f} | "
            f"{_format_ratio(aggregate['seconds_ratio'])} |"
        ),
        (
            f"| solver probes | {aggregate['horizons_old']} | "
            f"{aggregate['horizons_new']} | "
            f"{aggregate['horizons_new'] - aggregate['horizons_old']:+d} |"
        ),
        (
            f"| cells compared | {aggregate['cells_compared']} | "
            f"certified {aggregate['cells_certified']} | "
            f"regressed {aggregate['cells_regressed']} |"
        ),
    ]
    if aggregate["throughput_ratio_mean"] is not None:
        lines.append(
            "| propagation throughput | | | "
            f"{_format_ratio(aggregate['throughput_ratio_mean'])} |"
        )
    if report.regressions:
        lines.append("")
        lines.append("### Regressions")
        lines.extend(f"- {message}" for message in report.regressions)
    return "\n".join(lines) + "\n"


def save_trend(report: TrendReport, path: str | os.PathLike) -> None:
    """Persist the machine-readable trend artifact (``BENCH_TREND.json``)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
