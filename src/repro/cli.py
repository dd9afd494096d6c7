"""Command-line interface.

Examples
--------
::

    repro-nasp codes                      # list the evaluation codes
    repro-nasp circuit steane             # show the prep circuit for a code
    repro-nasp schedule steane --layout bottom
    repro-nasp schedule steane --strategy linear --timeout 60
    repro-nasp bounds steane --layout bottom      # certificates, no solving
    repro-nasp bounds triangle --layout bottom    # smoke instances work too
    repro-nasp table1                     # regenerate Table I
    repro-nasp figure4                    # regenerate Figure 4
    repro-nasp explore surface            # architecture design-space sweep
    repro-nasp bench --suite smt --jobs 4 --output results.json
    repro-nasp bench --suite smt --strategy linear bisection --output out.json
    repro-nasp bench --suite smt --sat-backend ipasir --output ext.json
    repro-nasp bench --suite smt --journal run.jsonl --output run.json
    repro-nasp bench --suite smt --resume run.jsonl --output run.json
    repro-nasp bench --suite smt --shard 0/2 --output shard0.json
    repro-nasp bench-merge shard0.json shard1.json --output merged.json
    repro-nasp bench-trend baseline.json merged.json --json BENCH_TREND.json
    repro-nasp microbench --output microbench.json
    repro-nasp microbench --backend ipasir flat
    repro-nasp serve --port 8537          # strategy-less requests run linear
    repro-nasp loadtest --requests 16 --seed 0
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro._version import __version__
from repro.arch import (
    bottom_storage_layout,
    double_sided_storage_layout,
    no_shielding_layout,
)
from repro.core.problem import SchedulingProblem
from repro.core.scheduler import SMTScheduler
from repro.core.strategies import DEFAULT_STRATEGY, available_strategies
from repro.core.structured import StructuredScheduler
from repro.sat.backend import available_backends
from repro.core.validator import validate_schedule
from repro.evaluation import (
    build_suite,
    figure4_from_rows,
    format_batch,
    format_figure4,
    format_table1,
    run_architecture_exploration,
    run_batch,
    run_table1,
)
from repro.evaluation.exploration import format_exploration
from repro.evaluation.runner import (
    DOCUMENT_VERSION,
    SMT_INSTANCES,
    SMT_STRATEGIES,
    smt_document,
)
from repro.metrics import approximate_success_probability
from repro.qec import available_codes, get_code
from repro.qec.state_prep import state_preparation_circuit

_LAYOUTS = {
    "none": no_shielding_layout,
    "bottom": bottom_storage_layout,
    "double": double_sided_storage_layout,
}


def _add_sat_backend_option(parser: argparse.ArgumentParser, role: str) -> None:
    """Add ``--sat-backend``; *role* says which probes the backend decides."""
    parser.add_argument(
        "--sat-backend",
        metavar="BACKEND",
        default=None,
        help=f"SAT backend for {role} (one of: "
        f"{', '.join(available_backends())}; default: the in-process "
        "flat-array core; 'chaos:BACKEND' wraps BACKEND in the "
        "fault-injection proxy)",
    )


def _positive_int(text: str) -> int:
    """``argparse`` type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-nasp",
        description="Optimal state preparation for logical arrays on zoned "
        "neutral atom quantum computers (DATE 2025 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("codes", help="list the available QEC codes")

    circuit = sub.add_parser("circuit", help="show a state-preparation circuit")
    circuit.add_argument("code", choices=available_codes())
    circuit.add_argument("--qasm", action="store_true", help="print OpenQASM 2 instead")

    schedule = sub.add_parser("schedule", help="schedule a preparation circuit")
    schedule.add_argument("code", choices=available_codes())
    schedule.add_argument("--layout", choices=sorted(_LAYOUTS), default="bottom")
    schedule.add_argument(
        "--strategy",
        choices=["structured", *available_strategies()],
        default="structured",
        help="scheduling backend: the constructive choreography (default; "
        "a witness without a search, so it returns on full-size codes) or "
        "an exact SMT search strategy (slow on full-size codes)",
    )
    schedule.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-horizon solver wall-clock budget for the SMT strategies",
    )
    schedule.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="whole-search wall-clock budget in seconds for the SMT "
        "strategies (unlike --timeout, which caps each horizon "
        "independently); on expiry the search degrades gracefully — "
        "best-known schedule, sound bound interval, and a termination "
        "verdict — instead of failing",
    )
    _add_sat_backend_option(schedule, "the SMT probes")
    schedule.add_argument("--json", action="store_true", help="dump the schedule as JSON")
    schedule.add_argument(
        "--render", action="store_true", help="draw every stage as an ASCII site grid"
    )

    bounds = sub.add_parser(
        "bounds",
        help="print the analytic bound certificates of an instance "
        "without running any solver",
    )
    bounds.add_argument(
        "instance",
        choices=[*available_codes(), *SMT_INSTANCES],
        help="a QEC code (scheduled on the evaluation layouts) or a smoke "
        "instance name (scheduled on the reduced bench layouts)",
    )
    bounds.add_argument("--layout", choices=sorted(_LAYOUTS), default="bottom")
    bounds.add_argument(
        "--shielding",
        choices=["auto", "on", "off"],
        default="auto",
        help="idle-qubit shielding policy (auto: shield iff the layout has "
        "a storage zone)",
    )
    bounds.add_argument(
        "--json", action="store_true", help="dump the certificate breakdown as JSON"
    )

    table1 = sub.add_parser("table1", help="regenerate Table I")
    table1.add_argument("--codes", nargs="*", choices=available_codes(), default=None)

    figure4 = sub.add_parser("figure4", help="regenerate Figure 4")
    figure4.add_argument("--codes", nargs="*", choices=available_codes(), default=None)

    explore = sub.add_parser("explore", help="architecture design-space exploration")
    explore.add_argument("code", choices=available_codes())

    bench = sub.add_parser(
        "bench", help="run a benchmark suite, optionally across worker processes"
    )
    bench.add_argument(
        "--suite",
        choices=["smt", "table1", "exploration", "all"],
        default="smt",
        help="which instance family to run (default: smt)",
    )
    bench.add_argument(
        "--codes",
        nargs="*",
        choices=available_codes(),
        default=None,
        help="restrict the table1/exploration suites to these codes",
    )
    bench.add_argument(
        "--strategy",
        nargs="*",
        choices=list(SMT_STRATEGIES),
        default=None,
        dest="strategies",
        help="search strategies for the smt suite (default: all)",
    )
    _add_sat_backend_option(bench, "the smt suite's SMT probes")
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; <=1 runs serially in this process",
    )
    bench.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-instance wall-clock budget in seconds",
    )
    bench.add_argument(
        "--output", default=None, help="persist the results as JSON to this path"
    )
    bench.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run only the I-th of N deterministic shards of the suite "
        "(stable hash of the cell name; the N shard outputs are disjoint, "
        "exhaustive, and mergeable via bench-merge)",
    )
    bench.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append a per-cell completion journal (JSONL) to PATH so a "
        "killed run can be resumed with --resume",
    )
    bench.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume from the journal at PATH: completed cells are carried "
        "over, crashed/timed-out cells re-queued (requires the same bench "
        "arguments as the original run; implies journalling to PATH)",
    )
    bench.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries after a worker crash before a cell is recorded as "
        "status 'failed' (default: 2; counts attempts from a resumed "
        "journal)",
    )

    bench_merge = sub.add_parser(
        "bench-merge",
        help="union the JSON outputs of a sharded bench run, validating "
        "that the shards are disjoint and exhaustive",
    )
    bench_merge.add_argument(
        "shards",
        nargs="+",
        help=f"the per-shard bench JSON files (schema v{DOCUMENT_VERSION})",
    )
    bench_merge.add_argument(
        "--output", required=True, help="write the merged document to this path"
    )

    bench_trend = sub.add_parser(
        "bench-trend",
        help="compare two bench JSON documents cell-by-cell and fail on "
        "wall-clock/probe-count regressions",
    )
    bench_trend.add_argument("old", help=f"baseline bench JSON (schema v{DOCUMENT_VERSION})")
    bench_trend.add_argument("new", help=f"candidate bench JSON (schema v{DOCUMENT_VERSION})")
    bench_trend.add_argument(
        "--wall-clock-threshold",
        type=float,
        default=0.25,
        help="relative wall-clock growth that trips the gate on a certified "
        "cell (default: 0.25 = +25%%)",
    )
    bench_trend.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="ignore wall-clock growth on cells faster than this in both "
        "runs (timing noise floor, default: 0.05s)",
    )
    bench_trend.add_argument(
        "--allow-missing",
        action="store_true",
        help="do not fail when cells from the old run are absent from the "
        "new one",
    )
    bench_trend.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_output",
        help="write the machine-readable trend report (BENCH_TREND.json)",
    )
    bench_trend.add_argument(
        "--markdown",
        default=None,
        metavar="PATH",
        help="write a GitHub-flavoured Markdown summary (job summaries)",
    )
    bench_trend.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="truncate the per-cell table to this many clean cells "
        "(regressed cells always print)",
    )

    microbench = sub.add_parser(
        "microbench",
        help="race two registered SAT backends on the smoke scheduling "
        "formulas (default: the flat-array core vs the seed reference)",
    )
    microbench.add_argument(
        "--backend",
        nargs=2,
        choices=available_backends(),
        default=None,
        metavar=("CANDIDATE", "BASELINE"),
        dest="backends",
        help="registered backends to compare; the candidate must beat the "
        "baseline for a zero exit code (default: flat reference)",
    )
    microbench.add_argument(
        "--output", default=None, help="persist the comparison as JSON to this path"
    )

    serve = sub.add_parser(
        "serve",
        help="run the scheduling service: an HTTP/JSON server streaming "
        "anytime responses, backed by a warm worker pool and the "
        "certified-result cache",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8537, help="bind port")
    serve.add_argument(
        "--jobs", type=_positive_int, default=2, help="persistent solver workers"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="bounded request queue depth; further submissions get 503",
    )
    serve.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="persist the certified-result cache as JSONL at PATH "
        "(loaded on start, appended on every new certificate)",
    )
    serve.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append the request ledger (bench-journal JSONL) to PATH",
    )
    serve.add_argument(
        "--strategy",
        choices=list(SMT_STRATEGIES),
        default=DEFAULT_STRATEGY,
        help="search strategy for requests that do not name one "
        "(default: %(default)s, the library's default)",
    )
    serve.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="default per-SMT-instance time limit in seconds",
    )
    serve.add_argument(
        "--hard-timeout",
        type=float,
        default=None,
        help="per-request wall-clock ceiling; an overrunning worker is "
        "terminated and restarted (termination: deadline)",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="fire seeded isomorphically-relabeled traffic at an "
        "in-process service; report p50/p99 latency and cache hit-rate",
    )
    loadtest.add_argument(
        "--requests", type=int, default=24, help="total requests to send"
    )
    loadtest.add_argument(
        "--concurrency", type=int, default=4, help="in-flight request cap"
    )
    loadtest.add_argument(
        "--jobs", type=int, default=2, help="service worker processes"
    )
    loadtest.add_argument(
        "--seed", type=int, default=0, help="relabeling/traffic seed"
    )
    loadtest.add_argument(
        "--instances",
        nargs="*",
        choices=sorted(SMT_INSTANCES),
        default=None,
        help="base instances to relabel (default: the fast-certifying mix)",
    )
    loadtest.add_argument(
        "--layout", choices=sorted(_LAYOUTS), default="bottom"
    )
    loadtest.add_argument(
        "--strategy",
        choices=list(SMT_STRATEGIES),
        default=DEFAULT_STRATEGY,
        help="search strategy for every request "
        "(default: %(default)s, the library's default)",
    )
    loadtest.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request deadline in seconds (anytime degradation)",
    )
    loadtest.add_argument(
        "--min-hit-rate",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail (exit 1) when the cache hit-rate falls below this",
    )
    loadtest.add_argument(
        "--output",
        default=None,
        help="persist the payload as bench JSON to this path",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "codes":
        for name in available_codes():
            code = get_code(name)
            prep = state_preparation_circuit(code)
            n, k, d = code.parameters()
            print(f"{name:<12} [[{n},{k},{d}]]  #CZ={prep.num_cz_gates}")
        return 0

    if args.command == "circuit":
        code = get_code(args.code)
        prep = state_preparation_circuit(code)
        if args.qasm:
            print(prep.to_circuit().to_qasm(), end="")
        else:
            print(f"{code.name}: {prep.num_qubits} qubits, {prep.num_cz_gates} CZ gates")
            for a, b in prep.cz_gates:
                print(f"  cz q{a} q{b}")
            for qubit in sorted(prep.local_corrections):
                gates = " ".join(kind.value for kind in prep.local_corrections[qubit])
                print(f"  correction on q{qubit}: {gates}")
        return 0

    if args.command == "schedule":
        code = get_code(args.code)
        prep = state_preparation_circuit(code)
        architecture = _LAYOUTS[args.layout]()
        problem = SchedulingProblem.from_circuit(
            architecture, prep, metadata={"code": code.name}
        )
        report = None
        if args.strategy == "structured":
            if (
                args.timeout is not None
                or args.deadline is not None
                or args.sat_backend is not None
            ):
                print(
                    "warning: --timeout/--deadline/--sat-backend only apply "
                    "to the SMT strategies; the structured backend runs "
                    "unbounded",
                    file=sys.stderr,
                )
            schedule = StructuredScheduler().schedule(problem)
            validate_schedule(schedule, require_shielding=problem.shielding)
        else:
            try:
                scheduler = SMTScheduler(
                    strategy=args.strategy,
                    time_limit_per_instance=args.timeout,
                    sat_backend=args.sat_backend,
                    deadline=args.deadline,
                )
            except ValueError as exc:
                # E.g. the requested SAT backend has no loadable library.
                print(f"error: {exc}", file=sys.stderr)
                return 1
            report = scheduler.schedule(problem)
            if not report.found:
                print(
                    f"no schedule within the stage/time budget "
                    f"(termination: {report.termination}, "
                    f"horizons tried: {report.stages_tried}, "
                    f"bounds: [{report.lower_bound}, "
                    f"{'-' if report.upper_bound is None else report.upper_bound}])",
                    file=sys.stderr,
                )
                return 1
            schedule = report.schedule
        breakdown = approximate_success_probability(schedule, prep)
        if args.json:
            print(json.dumps(schedule.to_dict(), indent=2))
        else:
            print(architecture.describe())
            print(f"problem: {problem.describe()}")
            print(f"schedule: {schedule.summary()}")
            if report is not None:
                upper = "-" if report.upper_bound is None else report.upper_bound
                upper_source = report.upper_bound_source or "-"
                print(
                    f"search: strategy={report.strategy} "
                    f"backend={report.sat_backend} optimal={report.optimal} "
                    f"termination={report.termination} "
                    f"bounds=[{report.lower_bound},{upper}] "
                    f"sources=[{report.lower_bound_source},{upper_source}] "
                    f"horizons={report.stages_tried}"
                )
            print(f"execution time: {breakdown.timing.total_ms:.3f} ms")
            print(f"ASP: {breakdown.asp:.4f}")
            if args.render:
                from repro.core.visualize import render_schedule

                print(render_schedule(schedule))
        return 0

    if args.command == "bounds":
        from repro.core.problem import problem_from_document
        from repro.core.strategies.search import (
            structured_upper_bound,
            witness_source,
        )

        shielding = None if args.shielding == "auto" else args.shielding == "on"
        if args.instance in SMT_INSTANCES:
            problem = problem_from_document(
                {**smt_document(args.instance, args.layout), "shielding": shielding}
            )
        else:
            code = get_code(args.instance)
            prep = state_preparation_circuit(code)
            architecture = _LAYOUTS[args.layout]()
            problem = SchedulingProblem.from_circuit(
                architecture, prep, shielding=shielding, metadata={"code": code.name}
            )
        breakdown = problem.bound_breakdown()
        witness = structured_upper_bound(problem)
        if args.json:
            document = {
                "instance": args.instance,
                "layout": args.layout,
                "shielding": problem.shielding,
                "lower_bound": breakdown.to_dict(),
                "upper_bound": None
                if witness is None
                else {
                    "stages": witness.num_stages,
                    "rydberg_stages": witness.num_rydberg_stages,
                    "transfer_stages": witness.num_transfer_stages,
                    "source": witness_source(witness),
                },
            }
            print(json.dumps(document, indent=2))
            return 0
        print(f"problem: {problem.describe()}")
        print("lower-bound certificates (Rydberg stages):")
        for name, value in breakdown.certificates:
            suffix = ""
            if name == "clique" and breakdown.clique:
                suffix = f"   witness qubits {breakdown.clique}"
            print(f"  {name:<14}{value}{suffix}")
        print(
            f"transfer certificate: +{breakdown.transfer}"
            + ("" if breakdown.transfer else " (does not fire)")
        )
        print(
            f"analytic lower bound: {breakdown.total}   "
            f"(source: {breakdown.source})"
        )
        if witness is None:
            print("structured upper bound: none (open search interval)")
        else:
            print(
                f"structured upper bound: {witness.num_stages} stages   "
                f"(source: {witness_source(witness)}, "
                f"#R={witness.num_rydberg_stages} "
                f"#T={witness.num_transfer_stages})"
            )
            print(
                f"certified interval: [{breakdown.total}, "
                f"{witness.num_stages}]   "
                f"width {witness.num_stages - breakdown.total}"
            )
        return 0

    if args.command == "table1":
        rows = run_table1(codes=args.codes)
        print(format_table1(rows))
        return 0

    if args.command == "figure4":
        rows = run_table1(codes=args.codes)
        print(format_figure4(figure4_from_rows(rows)))
        return 0

    if args.command == "explore":
        results = run_architecture_exploration(args.code)
        print(format_exploration(results))
        return 0

    if args.command == "bench":
        from repro.evaluation.runner import shard_info, shard_suite
        from repro.sat.backend import backend_info

        if args.sat_backend is not None:
            # Resolve eagerly (parameterised names like 'chaos:flat' are
            # derived, so argparse cannot enumerate them as choices): an
            # unknown or unavailable backend must fail before the suite
            # runs, not inside every worker.
            try:
                info = backend_info(args.sat_backend)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if not info.is_available():
                print(
                    f"error: SAT backend {info.name!r} is unavailable: "
                    f"{info.description or 'runtime requirements not met'}",
                    file=sys.stderr,
                )
                return 2

        instances = build_suite(
            args.suite,
            codes=args.codes,
            strategies=args.strategies,
            time_limit=args.timeout if args.timeout is not None else 120.0,
            backends=[args.sat_backend] if args.sat_backend else None,
        )
        full_names = [instance.name for instance in instances]
        shard = None
        if args.shard is not None:
            try:
                index_text, _, count_text = args.shard.partition("/")
                index, count = int(index_text), int(count_text)
                shard = shard_info(full_names, index, count)
            except ValueError as exc:
                print(
                    f"error: --shard must be I/N with 0 <= I < N, got "
                    f"{args.shard!r} ({exc})",
                    file=sys.stderr,
                )
                return 2
            instances = shard_suite(instances, index, count)
        if args.resume is not None and args.journal is not None:
            if args.resume != args.journal:
                print(
                    "error: --resume already names the journal; do not pass "
                    "a different --journal",
                    file=sys.stderr,
                )
                return 2
        journal_path = args.resume if args.resume is not None else args.journal
        try:
            results = run_batch(
                instances,
                jobs=args.jobs,
                timeout=args.timeout,
                output_path=args.output,
                journal_path=journal_path,
                resume=args.resume is not None,
                max_retries=args.max_retries,
                shard=shard,
            )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            # E.g. resuming a journal that belongs to a different suite.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_batch(results))
        if args.output:
            print(f"results written to {args.output}")
        return (
            0
            if all(result.status not in ("error", "failed") for result in results)
            else 1
        )

    if args.command == "bench-merge":
        from repro.evaluation.runner import (
            load_document,
            merge_documents,
            save_document,
        )

        try:
            documents = [load_document(path) for path in args.shards]
            merged = merge_documents(documents)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            save_document(merged, args.output)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
        shard = merged["shard"]
        print(
            f"merged {shard['merged_from']} shard(s): "
            f"{merged['num_instances']} cells ({merged['num_ok']} ok), "
            f"suite digest {shard['suite_digest'][:12]}…"
        )
        print(f"merged document written to {args.output}")
        return 0

    if args.command == "bench-trend":
        from repro.evaluation.trend import (
            compare_paths,
            format_trend,
            format_trend_markdown,
            save_trend,
        )

        try:
            report = compare_paths(
                args.old,
                args.new,
                wall_clock_threshold=args.wall_clock_threshold,
                min_seconds=args.min_seconds,
                allow_missing=args.allow_missing,
            )
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_trend(report, max_cells=args.max_cells))
        try:
            if args.json_output:
                save_trend(report, args.json_output)
                print(f"trend report written to {args.json_output}")
            if args.markdown:
                with open(args.markdown, "w", encoding="utf-8") as handle:
                    handle.write(format_trend_markdown(report))
                print(f"markdown summary written to {args.markdown}")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0 if report.ok else 1

    if args.command == "microbench":
        from repro.sat.bench import format_microbench, run_microbench

        try:
            document = run_microbench(
                backends=tuple(args.backends) if args.backends else None
            )
        except (ValueError, RuntimeError) as exc:
            # E.g. a backend compared with itself, or the ipasir backend
            # without a loadable library.
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(format_microbench(document))
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as handle:
                    json.dump(document, handle, indent=2, sort_keys=True)
                    handle.write("\n")
            except OSError as exc:
                print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
                return 1
            print(f"comparison written to {args.output}")
        # Non-zero exit = the candidate did not beat the baseline (default
        # pairing: a propagation-throughput regression of the flat core).
        return 0 if document["candidate_faster_everywhere"] else 1

    if args.command == "serve":
        from repro.service import run_service

        # run_service prints the bound address once it is listening.
        try:
            run_service(
                host=args.host,
                port=args.port,
                jobs=args.jobs,
                queue_limit=args.queue_limit,
                cache_path=args.cache,
                ledger_path=args.ledger,
                default_strategy=args.strategy,
                default_time_limit=args.time_limit,
                hard_timeout=args.hard_timeout,
            )
        except OSError as exc:
            # A busy port, or a --cache/--ledger path that cannot be opened.
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.command == "loadtest":
        from repro.service import format_loadtest, loadtest_result, run_loadtest
        from repro.service.loadtest import (
            DEFAULT_INSTANCES as DEFAULT_LOADTEST_INSTANCES,
        )

        try:
            payload = run_loadtest(
                requests=args.requests,
                concurrency=args.concurrency,
                jobs=args.jobs,
                seed=args.seed,
                instances=tuple(args.instances)
                if args.instances
                else DEFAULT_LOADTEST_INSTANCES,
                layout_kind=args.layout,
                strategy=args.strategy,
                deadline=args.deadline,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_loadtest(payload))
        if args.output:
            from repro.evaluation.runner import save_results

            try:
                save_results([loadtest_result(payload)], args.output)
            except OSError as exc:
                print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
                return 1
            print(f"results written to {args.output}")
        if payload.get("errors", 0) or payload.get("transport_errors", 0):
            return 1
        if (
            args.min_hit_rate is not None
            and payload.get("cache_hit_rate", 0.0) < args.min_hit_rate
        ):
            print(
                f"error: cache hit-rate {payload.get('cache_hit_rate', 0.0):.2%} "
                f"below the --min-hit-rate floor {args.min_hit_rate:.2%}",
                file=sys.stderr,
            )
            return 1
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
