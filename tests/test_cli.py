"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main


def test_codes_command(capsys):
    assert main(["codes"]) == 0
    output = capsys.readouterr().out
    assert "steane" in output
    assert "[[17,1,5]]" in output


def test_circuit_command(capsys):
    assert main(["circuit", "steane"]) == 0
    output = capsys.readouterr().out
    assert "CZ gates" in output
    assert "cz q" in output


def test_circuit_qasm_command(capsys):
    assert main(["circuit", "steane", "--qasm"]) == 0
    output = capsys.readouterr().out
    assert output.startswith("OPENQASM 2.0;")
    assert "cz q[" in output


def test_schedule_command(capsys):
    assert main(["schedule", "steane", "--layout", "bottom"]) == 0
    output = capsys.readouterr().out
    assert "ASP" in output
    assert "execution time" in output
    assert "stage lower bound" in output


def test_schedule_command_smt_strategy(capsys):
    """An SMT strategy with a harsh per-horizon budget still answers: the
    bisection strategy falls back on its structured upper-bound witness."""
    exit_code = main(
        ["schedule", "steane", "--layout", "none", "--strategy", "bisection",
         "--timeout", "2"]
    )
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "strategy=bisection" in output
    assert "bounds=[" in output


def test_schedule_render_command(capsys):
    assert main(["schedule", "steane", "--layout", "bottom", "--render"]) == 0
    output = capsys.readouterr().out
    assert "Rydberg beam" in output
    assert "E y=" in output


def test_schedule_json_command(capsys):
    assert main(["schedule", "steane", "--layout", "none", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["num_qubits"] == 7
    assert data["stages"]


def test_table1_command_restricted(capsys):
    assert main(["table1", "--codes", "steane"]) == 0
    output = capsys.readouterr().out
    assert "Steane" in output
    assert "No Shielding" in output


def test_figure4_command_restricted(capsys):
    assert main(["figure4", "--codes", "steane"]) == 0
    output = capsys.readouterr().out
    assert "dASP" in output


def test_explore_command(capsys):
    assert main(["explore", "steane"]) == 0
    output = capsys.readouterr().out
    assert "bottom storage" in output


def test_bench_command_exploration(capsys, tmp_path):
    output = tmp_path / "bench.json"
    assert (
        main(
            [
                "bench",
                "--suite",
                "exploration",
                "--codes",
                "steane",
                "--output",
                str(output),
            ]
        )
        == 0
    )
    text = capsys.readouterr().out
    assert "exploration/steane" in text
    assert "1/1 instances ok" in text
    document = json.loads(output.read_text())
    assert document["num_ok"] == 1


def test_bench_command_smt_single_strategy(capsys):
    assert (
        main(
            [
                "bench",
                "--suite",
                "smt",
                "--strategy",
                "linear",
                "--timeout",
                "300",
            ]
        )
        == 0
    )
    text = capsys.readouterr().out
    assert "smt/linear/bottom/chain-2" in text
    assert "smt/linear/none-shielded/ring-4" in text
    assert "65/65" not in text  # only one strategy was requested
    assert "13/13 instances ok" in text


def test_microbench_command_writes_comparison(tmp_path, capsys):
    """The deterministic half of the microbench: schema, backends, answers.

    The wall-clock race itself (exit code 0 only when ``flat`` wins every
    cell) is gated by CI's ``bench-smoke`` job, away from loaded test hosts.
    """
    output = tmp_path / "microbench.json"
    code = main(["microbench", "--output", str(output)])
    text = capsys.readouterr().out
    assert "flat faster than reference everywhere" in text
    document = json.loads(output.read_text())
    assert document["backends"] == ["flat", "reference"]
    assert code == (0 if document["candidate_faster_everywhere"] is True else 1)
    assert {cell["flat"]["result"] for cell in document["cells"]} == {"sat", "unsat"}
    for cell in document["cells"]:
        assert cell["reference"]["result"] == cell["flat"]["result"]


def test_bounds_command_prints_the_certificate_table(capsys):
    assert main(["bounds", "triangle", "--layout", "bottom"]) == 0
    text = capsys.readouterr().out
    assert "gate-load" in text
    assert "clique" in text
    assert "witness qubits (0, 1, 2)" in text
    assert "analytic lower bound: 4   (source: clique+transfer)" in text
    assert "certified interval: [4, 7]" in text


def test_bounds_command_shielded_storage_less_reports_the_airborne_witness(capsys):
    assert main(["bounds", "ring-4", "--layout", "none", "--shielding", "on"]) == 0
    text = capsys.readouterr().out
    assert "structured upper bound: 2 stages   (source: structured-airborne" in text
    assert "width 0" in text


def test_bounds_command_reports_open_intervals(capsys):
    assert main(["bounds", "triangle", "--layout", "none", "--shielding", "on"]) == 0
    text = capsys.readouterr().out
    assert "structured upper bound: none (open search interval)" in text


def test_bounds_command_json_covers_codes(capsys):
    assert main(["bounds", "steane", "--layout", "bottom", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["instance"] == "steane"
    assert document["shielding"] is True
    assert document["lower_bound"]["certificates"]["gate-load"] >= 1
    assert document["lower_bound"]["total"] >= 1
    assert document["upper_bound"]["source"].startswith("structured-")
    assert document["upper_bound"]["stages"] >= document["lower_bound"]["total"]


def test_unknown_code_rejected():
    with pytest.raises(SystemExit):
        main(["circuit", "unknown-code"])


def test_parser_has_version():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--version"])


def test_loadtest_command_reports_hit_rate_and_writes_v8(tmp_path, capsys):
    output = tmp_path / "loadtest.json"
    exit_code = main(
        ["loadtest", "--requests", "6", "--concurrency", "2", "--jobs", "2",
         "--seed", "5", "--instances", "triangle", "--min-hit-rate", "0.01",
         "--output", str(output)]
    )
    text = capsys.readouterr().out
    assert exit_code == 0
    assert "cache hit-rate" in text
    assert "latency p50" in text
    document = json.loads(output.read_text(encoding="utf-8"))
    assert document["version"] == 8
    payload = document["results"][0]["payload"]
    assert payload["cache_hit_rate"] > 0
    assert payload["latency_p50_seconds"] <= payload["latency_p99_seconds"]


@pytest.mark.parametrize("command", ["bench", "loadtest"])
def test_commands_write_one_document_shape_only(command):
    """There is a single bench document; no option selects another."""
    [subcommands] = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        option
        for action in subcommands.choices[command]._actions
        for option in action.option_strings
    }
    assert "--output" in options
    assert not [option for option in options if "version" in option]


def _option(command, flag):
    [subcommands] = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    [option] = [
        action
        for action in subcommands.choices[command]._actions
        if flag in action.option_strings
    ]
    return option


@pytest.mark.parametrize("command", ["bench", "serve", "loadtest"])
def test_strategy_choices_are_the_ones_the_service_admits(command):
    """A name the CLI offers must pass the service's admission check, or
    every request sent under it would fail."""
    from repro.service.server import check_solver_fields

    choices = _option(command, "--strategy").choices
    assert choices
    for strategy in choices:
        check_solver_fields({"strategy": strategy}, default_strategy="linear")


def test_every_entry_point_defaults_to_the_one_default_strategy():
    """The library, the service, the load test and the CLI's serve/loadtest
    run one default search order: ``linear``, the order with the lower
    summed conflicts and the same optima on the paper tier."""
    import inspect

    from repro.core.scheduler import SMTScheduler
    from repro.core.strategies import DEFAULT_STRATEGY
    from repro.service import SchedulingService
    from repro.service.loadtest import run_loadtest

    assert DEFAULT_STRATEGY == "linear"
    assert SMTScheduler().strategy == DEFAULT_STRATEGY
    with SchedulingService(jobs=1) as service:
        assert service.default_strategy == DEFAULT_STRATEGY
    signature = inspect.signature(run_loadtest)
    assert signature.parameters["strategy"].default == DEFAULT_STRATEGY
    for command in ("serve", "loadtest"):
        assert _option(command, "--strategy").default == DEFAULT_STRATEGY


def test_loadtest_rejects_a_strategy_the_service_does_not_know(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["loadtest", "--strategy", "coldstart", "--requests", "2"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'coldstart'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "steane", "--strategy", "portfolio"],
        ["bench", "--suite", "smt", "--strategy", "portfolio"],
    ],
    ids=["schedule", "bench"],
)
def test_the_deleted_portfolio_strategy_is_an_argparse_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "invalid choice: 'portfolio'" in capsys.readouterr().err


def test_bench_command_writes_the_current_document(tmp_path, capsys):
    output = tmp_path / "bench.json"
    assert main(
        ["bench", "--suite", "smt", "--strategy", "bisection", "--timeout",
         "300", "--shard", "0/4", "--output", str(output)]
    ) == 0
    capsys.readouterr()
    document = json.loads(output.read_text())
    assert document["version"] == 8
    assert document["shard"]["index"] == 0
    assert document["shard"]["count"] == 4
    assert document["journal_digest"] is None
    assert document["num_ok"] == document["num_instances"] > 0
    for entry in document["results"]:
        assert entry["attempts"] == 1
        assert entry["payload"]["termination"] == "certified"


def test_loadtest_command_enforces_min_hit_rate(capsys):
    # A single request can never hit the cache, so any positive floor trips.
    exit_code = main(
        ["loadtest", "--requests", "1", "--jobs", "1",
         "--instances", "single-gate", "--min-hit-rate", "0.5"]
    )
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "below the --min-hit-rate floor" in captured.err


def test_serve_command_parses_arguments():
    parser = build_parser()
    args = parser.parse_args(
        ["serve", "--port", "9000", "--jobs", "3", "--queue-limit", "5",
         "--strategy", "linear", "--hard-timeout", "10"]
    )
    assert args.command == "serve"
    assert args.port == 9000
    assert args.jobs == 3
    assert args.queue_limit == 5
    assert args.strategy == "linear"
    assert args.hard_timeout == 10.0


@pytest.mark.parametrize("command", ["schedule", "bench"])
def test_sat_backend_option_lists_every_registered_backend(command):
    from repro.sat.backend import available_backends

    option = _option(command, "--sat-backend")
    assert option.default is None
    for name in available_backends():
        assert name in option.help


def test_bench_refuses_an_unavailable_backend_before_any_cell(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_IPASIR_LIB", "/nonexistent")
    output = tmp_path / "bench.json"
    exit_code = main(
        ["bench", "--suite", "smt", "--sat-backend", "ipasir", "--output", str(output)]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "unavailable" in captured.err
    assert captured.out == ""
    assert not output.exists()


def test_bench_refuses_the_deleted_backend(deleted_backend, capsys):
    exit_code = main(["bench", "--suite", "smt", "--sat-backend", deleted_backend])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "unknown SAT backend" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    ("jobs", "message"),
    [("0", "must be at least 1"), ("-1", "must be at least 1"), ("two", "not an integer")],
)
def test_serve_rejects_fewer_than_one_worker_when_parsing(jobs, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--jobs", jobs])
    assert excinfo.value.code == 2
    assert f"--jobs: {message}" in capsys.readouterr().err


def test_serve_reports_a_busy_port_as_one_error_line(capsys):
    import socket

    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = busy.getsockname()[1]
        exit_code = main(["serve", "--port", str(port), "--jobs", "1"])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("flag", ["--cache", "--ledger"])
def test_serve_reports_an_unopenable_store_as_one_error_line(flag, tmp_path, capsys):
    missing = tmp_path / "no-such-directory" / "store.jsonl"
    exit_code = main(["serve", "--port", "0", "--jobs", "1", flag, str(missing)])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "no-such-directory" in line
