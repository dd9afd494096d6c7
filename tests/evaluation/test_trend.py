"""Tests for the commit-over-commit bench trend gate."""

import json

import pytest

from repro.cli import main
from repro.evaluation.trend import (
    compare_documents,
    compare_paths,
    format_trend,
    format_trend_markdown,
    save_trend,
)


def _cell(
    name,
    seconds=1.0,
    status="ok",
    horizons=3,
    certified=True,
    throughput=None,
    error=None,
):
    payload = {}
    if status == "ok":
        payload = {
            "found": certified,
            "optimal": certified,
            "num_horizons": horizons,
        }
        if throughput is not None:
            payload["sat_propagations_per_second"] = throughput
    return {
        "name": name,
        "suite": "smt",
        "status": status,
        "seconds": seconds,
        "payload": payload,
        "error": error,
        "attempts": 1,
    }


def _doc(cells, version=8):
    return {
        "version": version,
        "num_instances": len(cells),
        "num_ok": sum(1 for cell in cells if cell["status"] == "ok"),
        "results": cells,
    }


def test_identical_runs_pass_the_gate():
    doc = _doc([_cell("smt/a"), _cell("smt/b", seconds=0.5)])
    report = compare_documents(doc, doc)
    assert report.ok
    assert report.regressions == []
    assert report.aggregate["cells_compared"] == 2
    assert report.aggregate["cells_certified"] == 2
    assert report.aggregate["seconds_ratio"] == pytest.approx(1.0)


def test_doubled_wall_clock_on_a_certified_cell_trips_the_gate():
    old = _doc([_cell("smt/a", seconds=1.0)])
    new = _doc([_cell("smt/a", seconds=2.0)])
    report = compare_documents(old, new)
    assert not report.ok
    assert any("wall-clock" in message for message in report.regressions)
    assert report.cells[0].seconds_ratio == pytest.approx(2.0)


def test_wall_clock_growth_within_the_threshold_passes():
    old = _doc([_cell("smt/a", seconds=1.0)])
    new = _doc([_cell("smt/a", seconds=1.2)])
    assert compare_documents(old, new, wall_clock_threshold=0.25).ok
    assert not compare_documents(old, new, wall_clock_threshold=0.1).ok


def test_min_seconds_floor_filters_noise_on_near_instant_cells():
    old = _doc([_cell("smt/a", seconds=0.01)])
    new = _doc([_cell("smt/a", seconds=0.03)])  # 3x, but both < 50ms
    assert compare_documents(old, new).ok
    # The floor compares against the slower of the two runs, so a cell
    # that *became* slow is still caught.
    slow = _doc([_cell("smt/a", seconds=0.5)])
    assert not compare_documents(old, slow).ok


def test_uncertified_cells_are_not_wall_clock_gated():
    old = _doc([_cell("smt/a", seconds=1.0, certified=False)])
    new = _doc([_cell("smt/a", seconds=10.0, certified=False)])
    report = compare_documents(old, new)
    assert report.ok
    assert report.aggregate["cells_certified"] == 0


def test_any_probe_count_increase_on_a_certified_cell_trips_the_gate():
    old = _doc([_cell("smt/a", seconds=0.001, horizons=2)])
    new = _doc([_cell("smt/a", seconds=0.001, horizons=3)])
    report = compare_documents(old, new)
    assert not report.ok
    assert any("probe count rose 2 -> 3" in m for m in report.regressions)
    # Fewer probes is an improvement, not a regression.
    assert compare_documents(new, old).ok


def test_ok_to_not_ok_status_change_trips_the_gate():
    old = _doc([_cell("smt/a")])
    new = _doc([_cell("smt/a", status="timeout", error="exceeded 1s")])
    report = compare_documents(old, new)
    assert not report.ok
    assert any("was ok, now timeout" in m for m in report.regressions)


def test_cooperative_deadline_cells_count_as_not_ok():
    """An SMT cell that degrades to ``termination: "deadline"``
    keeps ``status: "ok"`` (its payload is a valid best-effort answer), but
    the gate must treat it like a timeout: certifying within budget before
    and running out of time now is a regression."""
    old_cell = _cell("smt/a")
    old_cell["payload"]["termination"] = "certified"
    new_cell = _cell("smt/a", certified=False)
    new_cell["payload"]["termination"] = "deadline"
    report = compare_documents(_doc([old_cell]), _doc([new_cell]))
    assert not report.ok
    assert any("was ok, now deadline" in m for m in report.regressions)


def test_deadline_cells_in_both_runs_do_not_trip_the_gate():
    """deadline -> deadline is not an ok -> non-ok transition."""
    cells = []
    for _ in range(2):
        cell = _cell("smt/a", certified=False)
        cell["payload"]["termination"] = "deadline"
        cells.append(cell)
    report = compare_documents(_doc([cells[0]]), _doc([cells[1]]))
    assert report.ok


def test_missing_cells_trip_the_gate_unless_allowed():
    old = _doc([_cell("smt/a"), _cell("smt/b")])
    new = _doc([_cell("smt/a")])
    report = compare_documents(old, new)
    assert not report.ok
    assert report.missing == ["smt/b"]
    relaxed = compare_documents(old, new, allow_missing=True)
    assert relaxed.ok
    assert relaxed.aggregate["cells_missing"] == 1


def test_added_cells_are_informational():
    old = _doc([_cell("smt/a")])
    new = _doc([_cell("smt/a"), _cell("smt/new")])
    report = compare_documents(old, new)
    assert report.ok
    assert report.added == ["smt/new"]
    assert report.aggregate["cells_added"] == 1


def test_throughput_is_reported_but_never_gated():
    old = _doc([_cell("smt/a", throughput=2.0e6)])
    new = _doc([_cell("smt/a", throughput=1.0e6)])  # halved
    report = compare_documents(old, new)
    assert report.ok
    assert report.aggregate["throughput_ratio_mean"] == pytest.approx(0.5)


def test_pre_v5_documents_are_rejected():
    doc = _doc([_cell("smt/a")], version=4)
    with pytest.raises(ValueError, match="schema v4"):
        compare_documents(doc, _doc([_cell("smt/a")]))
    with pytest.raises(ValueError, match="requires schema v8"):
        compare_documents(_doc([_cell("smt/a")]), doc)


@pytest.mark.parametrize("version", [7, 9])
def test_only_the_current_schema_is_compared(version):
    """Older and newer schemas alike: the runner writes only v8."""
    with pytest.raises(ValueError, match=f"schema v{version}"):
        compare_documents(
            _doc([_cell("smt/a")], version=version), _doc([_cell("smt/a")])
        )


def test_disjoint_runs_are_rejected():
    with pytest.raises(ValueError, match="share no cells"):
        compare_documents(_doc([_cell("smt/a")]), _doc([_cell("smt/b")]))


def test_format_trend_flags_regressed_cells_and_truncates_clean_ones():
    old = _doc([_cell(f"smt/clean-{i}", seconds=0.001) for i in range(4)]
               + [_cell("smt/slow", seconds=1.0)])
    new = _doc([_cell(f"smt/clean-{i}", seconds=0.001) for i in range(4)]
               + [_cell("smt/slow", seconds=3.0)])
    report = compare_documents(old, new)
    text = format_trend(report, max_cells=2)
    assert "<< REGRESSED" in text
    assert "smt/slow" in text  # regressed cells always shown
    assert "unremarkable cell(s) not shown" in text
    assert "REGRESSIONS (1):" in text
    clean = format_trend(compare_documents(old, old))
    assert "no regressions: the trend gate passes" in clean


def test_format_trend_markdown_carries_the_verdict():
    old = _doc([_cell("smt/a", seconds=1.0, throughput=1e6)])
    good = format_trend_markdown(compare_documents(old, old))
    assert "## Bench trend gate" in good
    assert "✅ passes" in good
    bad = format_trend_markdown(
        compare_documents(old, _doc([_cell("smt/a", seconds=5.0)]))
    )
    assert "❌ **FAILS**" in bad
    assert "### Regressions" in bad


def test_save_trend_round_trip(tmp_path):
    old = _doc([_cell("smt/a", seconds=1.0)])
    new = _doc([_cell("smt/a", seconds=4.0)])
    report = compare_documents(old, new)
    path = tmp_path / "BENCH_TREND.json"
    save_trend(report, path)
    document = json.loads(path.read_text())
    assert document["ok"] is False
    assert document["regressions"] == report.regressions
    assert document["cells"][0]["name"] == "smt/a"
    assert document["thresholds"]["wall_clock_threshold"] == 0.25


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_bench_trend_cli_exits_nonzero_on_an_injected_2x_regression(
    tmp_path, capsys
):
    old = _write(tmp_path, "old.json", _doc([_cell("smt/a", seconds=1.0)]))
    new = _write(tmp_path, "new.json", _doc([_cell("smt/a", seconds=2.0)]))
    assert main(["bench-trend", old, old]) == 0
    assert main(["bench-trend", old, new]) == 1
    out = capsys.readouterr().out
    assert "no regressions" in out
    assert "REGRESSIONS" in out
    # A generous threshold waves the same delta through.
    assert main(["bench-trend", old, new, "--wall-clock-threshold", "4.0"]) == 0


def test_bench_trend_cli_writes_the_json_and_markdown_artifacts(tmp_path):
    old = _write(tmp_path, "old.json", _doc([_cell("smt/a", seconds=1.0)]))
    new = _write(tmp_path, "new.json", _doc([_cell("smt/a", seconds=3.0)]))
    trend_json = tmp_path / "BENCH_TREND.json"
    trend_md = tmp_path / "trend.md"
    assert main([
        "bench-trend", old, new,
        "--json", str(trend_json), "--markdown", str(trend_md),
    ]) == 1
    assert json.loads(trend_json.read_text())["ok"] is False
    assert "❌ **FAILS**" in trend_md.read_text()


def test_bench_trend_cli_rejects_old_schemas_and_missing_files(
    tmp_path, capsys
):
    v4 = _write(tmp_path, "v4.json", _doc([_cell("smt/a")], version=4))
    v8 = _write(tmp_path, "v8.json", _doc([_cell("smt/a")]))
    assert main(["bench-trend", v4, v8]) == 2
    assert "schema v4" in capsys.readouterr().err
    assert main(["bench-trend", v8, str(tmp_path / "nope.json")]) == 2


def test_bench_trend_cli_allow_missing_and_max_cells(tmp_path, capsys):
    old = _write(
        tmp_path, "old.json",
        _doc([_cell("smt/a", seconds=0.001), _cell("smt/b", seconds=0.001)]),
    )
    new = _write(tmp_path, "new.json", _doc([_cell("smt/a", seconds=0.001)]))
    assert main(["bench-trend", old, new]) == 1
    assert main(["bench-trend", old, new, "--allow-missing"]) == 0
    assert main([
        "bench-trend", old, old, "--max-cells", "1",
    ]) == 0
    assert "unremarkable cell(s) not shown" in capsys.readouterr().out


def test_compare_paths_matches_compare_documents(tmp_path):
    old_doc = _doc([_cell("smt/a", seconds=1.0)])
    new_doc = _doc([_cell("smt/a", seconds=1.1)])
    old = _write(tmp_path, "old.json", old_doc)
    new = _write(tmp_path, "new.json", new_doc)
    from_paths = compare_paths(old, new)
    from_docs = compare_documents(old_doc, new_doc)
    assert from_paths.to_dict() == from_docs.to_dict()
