"""Command-line interface: ``repro-soc`` (or ``python -m repro``).

Subcommands:

* ``list`` — shipped benchmark SOCs.
* ``describe SOC`` — core table of a benchmark.
* ``compact SOC`` — run two-dimensional SI compaction and print statistics.
* ``optimize SOC`` — optimize the test architecture and print the schedule.
* ``table SOC`` — regenerate a Table 2/3 style experiment.
* ``bounds SOC`` — lower bounds and the optimality gap of the heuristic.
* ``overhead SOC`` — DFT area cost of SI-capable wrappers.
* ``svg SOC`` — export the optimized schedule as an SVG figure.
* ``synth NAME`` — generate a synthetic ITC'02-style SOC.
* ``evaluate SOC`` — price a saved architecture against a test set.
* ``pareto SOC`` — pin-budget trade-off curve with knee detection.
* ``scaling`` — optimizer scaling study on synthesized SOCs.
* ``volume SOC`` — test-data-volume study of 2-D compaction.
* ``coverage SOC`` — MA fault coverage of a random pattern set.
* ``compare SOC`` — head-to-head optimizer comparison.
* ``multisite SOC`` — multi-site throughput study.
* ``sensitivity SOC`` — generator-knob sensitivity study.
* ``stability SOC`` — seed-stability of the table metrics.
* ``cache verify|gc`` — integrity-check / prune the on-disk cache store.
* ``serve`` — run the optimization service (async HTTP job server).
* ``submit KIND`` — submit an experiment to a running service and wait.
* ``jobs`` — list, inspect, or stream jobs on a running service.

Exit codes are uniform across commands (``repro.runtime.status``):
0 = ok, 1 = failed, 3 = partial (``--allow-partial`` salvage), 2 =
argparse usage error, 87 = injected fault abort (test harness only).

The ten plan kinds take their knob flags from one schema,
:data:`repro.experiments.knobs.SCHEMA`, which generates both the local
commands and the ``repro submit KIND`` subcommands.  Every such command
builds its plan with :func:`repro.experiments.knobs.build_plan` and runs
it through :class:`~repro.experiments.runner.PlanRunner`, as do
``bounds``, ``svg`` and ``whatif`` (optimize's plan).  The eight
experiment commands (``pareto``, ``scaling``, ``table``, ``volume``,
``compare``, ``multisite``, ``sensitivity``, ``stability``) also take
``--jobs`` and ``--cache`` (also spelled ``--resume``: a killed run
resumes by running again over the same store), plus ``--profile`` for the
unified JSON run report (``docs/experiments.md``).  Every plan run
re-verifies its schedules independently (``docs/resilience.md``); the
``--verify`` flag those ten commands and ``serve`` still accept is a
no-op kept for old scripts.

See ``docs/cli.md`` for worked examples of every command.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.knobs import SCHEMA, KindSchema, build_plan
from repro.soc.benchmarks import available_benchmarks, load_benchmark
from repro.soc.itc02 import parse_file
from repro.soc.model import Soc


def _load_soc(name: str) -> Soc:
    """Load a shipped benchmark by name, or an ITC'02 file by path."""
    if name in available_benchmarks():
        return load_benchmark(name)
    return parse_file(name)


def _make_cache(args: argparse.Namespace):
    """Build the evaluation cache requested by ``--cache`` (or its second
    spelling ``--resume``; ``--cache``'s directory wins), or ``None``."""
    store_dir = getattr(args, "cache", None) or getattr(args, "resume", None)
    if store_dir is None:
        return None
    from repro.runtime.cache import EvaluationCache

    return EvaluationCache(store_dir=store_dir)


def _runtime_arguments(args: argparse.Namespace) -> dict:
    """The uniform runtime-flag tail of a run report's arguments."""
    return {
        "jobs": args.jobs,
        "cache": args.cache,
        "resume": args.resume,
        "policy": getattr(args, "policy", None),
        "allow_partial": getattr(args, "allow_partial", False),
    }


def _make_policy(args: argparse.Namespace):
    """Build the run policy from ``--policy``/``--allow-partial``, or
    ``None`` for the (behavior-identical) default policy."""
    spec = getattr(args, "policy", None)
    allow_partial = getattr(args, "allow_partial", False)
    if spec is None and not allow_partial:
        return None
    from repro.runtime.supervision import RunPolicy

    policy = RunPolicy.parse(spec) if spec else RunPolicy()
    if allow_partial:
        policy = policy.replace(allow_partial=True)
    return policy


def _render_partial(run) -> None:
    """The partial-run banner: what was salvaged, what was quarantined."""
    print(
        f"PARTIAL RUN: {len(run.poisoned)} of {run.cells} cells "
        "quarantined; no report assembled"
    )
    for cell_id, reason in sorted(run.poisoned.items()):
        print(f"  poisoned {cell_id}: {reason}")
    salvaged = run.executed + run.cached
    print(
        f"{salvaged} cells completed (the cache store keeps them); "
        "re-run with the same --cache to retry the quarantined cells"
    )


def _knob_values(args: argparse.Namespace, schema: KindSchema) -> dict:
    """The parsed knob flags of ``schema`` (``None`` for a knob the
    command does not take, so :func:`build_plan` applies its default)."""
    return {knob.name: getattr(args, knob.name, None) for knob in schema.knobs}


def _run_plan(args: argparse.Namespace, kind: str, render) -> int:
    """Build ``kind``'s plan from the parsed knobs and execute it under
    the uniform runtime flags.

    The plan is built inside the instrumentation context (so parent-side
    preparation such as building SI groups is counted), then runs
    through :class:`PlanRunner` with the command's
    ``--jobs/--cache`` settings and ``render(run)`` prints the
    command's output.  ``--profile`` then emits the unified run report
    (:func:`repro.experiments.reporting.experiment_report`), whose
    ``arguments`` are the SOC, the kind's knobs and the runtime flags.

    Returns ``render``'s exit code when it gave one, else the uniform
    exit code for the run's status (:mod:`repro.runtime.status`): 0 ok,
    3 partial.
    """
    from repro.experiments.runner import PlanRunner
    from repro.runtime.instrumentation import (
        Instrumentation,
        use_instrumentation,
    )
    from repro.runtime.status import exit_code, run_status

    schema = SCHEMA[kind]
    soc = _load_soc(args.soc) if schema.soc else None
    knobs = _knob_values(args, schema)
    cache = _make_cache(args)
    instrumentation = Instrumentation()
    start = time.perf_counter()
    with use_instrumentation(instrumentation):
        plan = build_plan(kind, soc, **knobs)
        runner = PlanRunner(
            jobs=getattr(args, "jobs", 1),
            cache=cache,
            policy=_make_policy(args),
        )
        run = runner.run(plan)
    code = None
    if run.status == "partial":
        _render_partial(run)
    else:
        code = render(run)
    destination = getattr(args, "profile", None)
    if destination is not None:
        from repro.experiments.reporting import experiment_report

        report = experiment_report(
            kind,
            {
                **({"soc": args.soc} if schema.soc else {}),
                **knobs,
                **_runtime_arguments(args),
            },
            run,
            wall_seconds=time.perf_counter() - start,
            instrumentation=instrumentation,
        )
        if destination == "-":
            print()
            print(report.summary())
        else:
            report.save(destination)
            print(f"run report written to {destination}")
    return exit_code(run_status(run)) if code is None else code


def _plan_renderer(kind: str):
    """The shared per-kind report renderer
    (:func:`repro.experiments.render.render_report`) as a ``render``
    callback for :func:`_run_plan` — the same registry the service uses,
    so CLI output and service job results are byte-identical."""
    from repro.experiments.render import render_report

    return lambda run: print(render_report(kind, run.report))


def _render_table(args: argparse.Namespace):
    """``table``'s render hook: the shared renderer plus the elapsed
    line, ``--verbose`` progress and the ``--json`` summary."""

    def render(run) -> None:
        from repro.experiments.render import render_report
        from repro.experiments.reporting import save_result
        from repro.experiments.table_runner import print_table_progress

        result = run.report
        result.elapsed_seconds = run.wall_seconds
        if args.verbose:
            print_table_progress(result)
        print(render_report("table", result))
        print(f"(elapsed: {result.elapsed_seconds:.1f}s)")
        if args.json:
            save_result(result, args.json)
            print(f"JSON written to {args.json}")

    return render


def _cmd_plan(args: argparse.Namespace) -> int:
    """Every experiment command: the kind's plan, rendered by the shared
    renderer."""
    return _run_plan(args, args.command, _plan_renderer(args.command))


def _cmd_table(args: argparse.Namespace) -> int:
    return _run_plan(args, "table", _render_table(args))


def _cmd_optimize(args: argparse.Namespace) -> int:
    shared = _plan_renderer("optimize")

    def render(run) -> None:
        shared(run)
        result = run.report.result
        if args.utilization:
            from repro.tam.report import format_utilization_report

            print()
            print(
                format_utilization_report(
                    run.report.soc, result.architecture, result.evaluation
                )
            )
        if args.save_arch:
            from repro.tam.serialize import save_architecture

            save_architecture(result.architecture, args.save_arch)
            print(f"\narchitecture written to {args.save_arch}")

    return _run_plan(args, "optimize", render)


def _add_soc_and_knobs(
    parser: argparse.ArgumentParser, schema: KindSchema
) -> None:
    """The schema's SOC argument and knob flags."""
    if schema.soc:
        parser.add_argument("soc", help="benchmark name or .soc file path")
    for knob in schema.knobs:
        parser.add_argument(
            knob.flag,
            type=knob.type,
            nargs="+" if knob.many else None,
            default=list(knob.default) if knob.many else knob.default,
            required=knob.required,
            help=knob.help if knob.required
            else f"{knob.help} (default: %(default)s)",
        )


def _add_verify_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verify", action="store_true",
        help="accepted for old scripts and ignored: every run "
        "re-verifies its schedules (width budget, full core/group "
        "coverage, no rail overlap, recomputed T_soc)",
    )


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """The uniform plan-runner flags every experiment command accepts:
    ``--jobs``, ``--cache`` (also spelled ``--resume``; and the no-op
    ``--verify``) — plus ``--profile`` for the unified run report."""
    from repro.runtime.cache import DEFAULT_STORE_DIR

    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the plan cells (1 = serial, more = the "
        "work-stealing worker pool; results are bit-identical either way)",
    )
    parser.add_argument(
        "--cache", nargs="?", const=str(DEFAULT_STORE_DIR), default=None,
        metavar="DIR",
        help="memoize plan cells on disk, shared across experiments "
        f"(default directory: {DEFAULT_STORE_DIR})",
    )
    parser.add_argument(
        "--resume", nargs="?", const=str(DEFAULT_STORE_DIR), default=None,
        metavar="DIR",
        help="a second spelling of --cache: a killed run resumes by "
        "running again over the same store (--cache's DIR wins when "
        "both are given)",
    )
    _add_verify_flag(parser)
    parser.add_argument(
        "--policy", default=None, metavar="SPEC",
        help="run supervision policy, comma-separated key=value pairs "
        "(e.g. 'retries=4,backoff=0.5,timeout=120,breaker=0.5,"
        "allow-partial'); see docs/supervision.md for the schema",
    )
    parser.add_argument(
        "--allow-partial", action="store_true",
        help="quarantine cells that exhaust their retry budget (and "
        "their dependents) instead of aborting: the run completes with "
        "an explicit partial report; a rerun over the same --cache "
        "store retries the poisoned cells",
    )
    parser.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the unified JSON run report (plan fingerprint, "
        "backend, cell counts, counters, timers, cache statistics); "
        "without PATH, print a summary to stdout",
    )


def _cmd_list(_: argparse.Namespace) -> int:
    for name in available_benchmarks():
        soc = load_benchmark(name)
        print(
            f"{name:<10} {len(soc):>3} cores  "
            f"{soc.total_terminals:>6} terminals  "
            f"{soc.total_scan_cells:>7} scan cells"
        )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    print(_load_soc(args.soc).describe())
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.compaction.horizontal import build_si_test_groups
    from repro.sitest.generator import generate_random_patterns

    soc = _load_soc(args.soc)
    patterns = generate_random_patterns(soc, args.patterns, seed=args.seed)
    grouping = build_si_test_groups(soc, patterns, parts=args.parts,
                                    seed=args.seed)
    print(
        f"{len(patterns)} patterns -> "
        f"{grouping.total_compacted_patterns} compacted in "
        f"{len(grouping.groups)} groups "
        f"({grouping.cut_patterns} originals in the residual group)"
    )
    for group, compaction in zip(grouping.groups, grouping.compactions):
        kind = "residual" if group.is_residual else f"part over {len(group.cores)} cores"
        print(
            f"  group {group.group_id}: {kind}, "
            f"{compaction.original_count} -> {group.patterns} patterns "
            f"(ratio {compaction.ratio:.1f}x)"
        )
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.core.bounds import bound_report

    def render(run) -> None:
        optimized = run.report
        report = bound_report(optimized.soc, args.wmax, optimized.groups)
        t_total = optimized.result.t_total
        print(f"core floor:        {report.core_floor} cc")
        print(f"bandwidth bound:   {report.bandwidth_bound} cc")
        print(f"SI floor:          {report.si_floor} cc")
        print(f"T_total bound:     {report.t_total_bound} cc")
        print(f"achieved T_total:  {t_total} cc")
        print(f"optimality gap:    {report.gap(t_total):.1%}")

    return _run_plan(args, "optimize", render)


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.wrapper.cells import format_overhead_report

    print(format_overhead_report(_load_soc(args.soc)))
    return 0


def _cmd_svg(args: argparse.Namespace) -> int:
    from repro.tam.svg import write_schedule_svg

    def render(run) -> None:
        optimized = run.report
        result = optimized.result
        write_schedule_svg(
            optimized.soc, result.architecture, result.evaluation, args.out
        )
        print(f"wrote {args.out} (T_total = {result.t_total} cc)")

    return _run_plan(args, "optimize", render)


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.soc.itc02 import dump_file
    from repro.soc.synth import synthesize_soc

    soc = synthesize_soc(args.name, args.cores, seed=args.seed)
    dump_file(soc, args.out)
    print(f"wrote {args.out}")
    print(soc.describe())
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.sitest.generator import generate_random_patterns
    from repro.sitest.simulator import coverage_curve, simulate
    from repro.sitest.topology import random_topology

    soc = _load_soc(args.soc)
    topology = random_topology(soc, fanouts_per_core=args.fanouts,
                               locality=args.locality, seed=args.seed)
    patterns = generate_random_patterns(soc, args.patterns, seed=args.seed)
    report = simulate(topology, patterns)
    print(
        f"{len(patterns)} random patterns: {report.coverage:.1%} MA "
        f"coverage ({len(report.detected)}/{report.total_faults} faults)"
    )
    checkpoints = tuple(
        max(1, args.patterns * step // 4) for step in range(1, 5)
    )
    for count, coverage in coverage_curve(topology, patterns, checkpoints):
        print(f"  after {count:>8} patterns: {coverage:>6.1%}")
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.core.whatif import format_whatif_report, what_if

    def render(run) -> None:
        optimized = run.report
        print(
            format_whatif_report(
                what_if(
                    optimized.soc,
                    optimized.result.architecture,
                    optimized.groups,
                )
            )
        )

    return _run_plan(args, "optimize", render)


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    from repro.runtime.cache import audit_store, verify_store

    if args.json:
        import json as json_module

        report = audit_store(args.dir)
        if args.quarantine:
            report["problems"] = verify_store(args.dir, quarantine=True)
            report["quarantined"] = len(report["problems"])
        print(json_module.dumps(report, indent=2, sort_keys=True))
        return 0 if not report["problems"] else 1
    problems = verify_store(args.dir, quarantine=args.quarantine)
    if not problems:
        print(f"{args.dir}: store healthy")
        return 0
    for problem in problems:
        print(problem)
    verb = "quarantined (*.corrupt)" if args.quarantine else "found"
    print(f"{len(problems)} bad {'entry' if len(problems) == 1 else 'entries'} {verb}")
    return 1


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    from repro.runtime.cache import gc_store

    removed = gc_store(args.dir, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for name in removed:
        print(f"{verb} {name}")
    tail = "would be pruned" if args.dry_run else "pruned"
    print(f"{args.dir}: {len(removed)} files {tail}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    from pathlib import Path

    from repro.service.server import OptimizationService, ServiceConfig

    # SIGINT stops the server however it was started: a background job
    # of a non-interactive shell inherits SIGINT ignored, and Python
    # then never raises KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    service = OptimizationService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            state_dir=Path(args.state_dir),
            jobs=args.jobs,
            cache_dir=args.cache,
            queue_limit=args.queue_limit,
            policy=args.policy,
        )
    )
    try:
        service.start()
        # Exact line first, flushed: scripts (and the test suite)
        # discover a port-0 server by reading it from the pipe.
        print(f"serving on {service.url}", flush=True)
        stats = service.stats()
        print(
            f"state dir {args.state_dir} | jobs {args.jobs} | "
            f"queue limit {args.queue_limit} | "
            f"{stats['jobs']} journaled jobs restored",
            flush=True,
        )
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        service.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.runtime.status import STATUS_FAILED, exit_code
    from repro.service.client import ServiceClient

    schema = SCHEMA[args.kind]
    soc = _load_soc(args.soc) if schema.soc else None
    plan = build_plan(args.kind, soc, **_knob_values(args, schema))
    client = ServiceClient(args.url, timeout=args.timeout)
    response = client.submit(
        plan, priority=args.priority, fresh=args.fresh, tag=args.tag
    )
    job = response["job"]
    verb = "submitted" if response["created"] else "joined"
    print(
        f"{verb} job {job['id']} ({response['fingerprint']})",
        file=sys.stderr,
    )
    if args.no_wait:
        print(job["id"])
        return 0
    outcome = client.wait(job["id"], timeout=args.timeout)
    job = outcome["job"]
    if job["state"] == "failed":
        error = job.get("error") or {}
        print(
            f"job {job['id']} failed: "
            f"{error.get('message', 'unknown error')}",
            file=sys.stderr,
        )
        return exit_code(STATUS_FAILED)
    result = outcome.get("result") or {}
    if result.get("rendered"):
        print(result["rendered"])
    if job["state"] == "partial":
        plan_block = result.get("plan") or {}
        cells = plan_block.get("cells") or {}
        print(
            f"job {job['id']} completed PARTIAL "
            f"({cells.get('poisoned', '?')} cells quarantined)",
            file=sys.stderr,
        )
    return exit_code(job["state"])


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.runtime.status import exit_code
    from repro.service.client import ServiceClient
    from repro.service.wire import TERMINAL_STATES

    client = ServiceClient(args.url)
    if args.job is None:
        for job in client.jobs():
            tag = f"  tag {job['tag']}" if job.get("tag") else ""
            print(
                f"{job['id']}  {job['state']:<8} {job['kind']:<12} "
                f"prio {job['priority']:>4}  x{job['submissions']}"
                f"{tag}"
            )
        return 0
    if args.watch:
        state = None
        for event in client.events(args.job):
            state = event.get("state", state)
            print(json_module.dumps(event, sort_keys=True), flush=True)
        if state in TERMINAL_STATES:
            return exit_code(state)
        return 0
    print(
        json_module.dumps(
            client.job(args.job), indent=2, sort_keys=True
        )
    )
    return 0


def _submit_parser() -> argparse.ArgumentParser:
    """The flags every ``repro submit KIND`` shares (a parent parser)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="service base URL",
    )
    common.add_argument(
        "--priority", type=int, default=0,
        help="queue priority (higher runs first; -100..100)",
    )
    common.add_argument(
        "--fresh", action="store_true",
        help="bypass dedup: force a new job even if an identical plan "
        "is already queued, running, or finished",
    )
    common.add_argument("--tag", default=None, help="free-form job label")
    common.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return immediately instead of "
        "waiting for the result",
    )
    common.add_argument(
        "--timeout", type=float, default=3600.0,
        help="seconds to wait for the result",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-soc",
        description="SOC test architecture optimization for SI faults "
        "(DAC 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list shipped benchmark SOCs").set_defaults(
        func=_cmd_list
    )

    describe = sub.add_parser("describe", help="print a benchmark's core table")
    describe.add_argument("soc", help="benchmark name or .soc file path")
    describe.set_defaults(func=_cmd_describe)

    compact = sub.add_parser("compact", help="run two-dimensional SI compaction")
    compact.add_argument("soc")
    compact.add_argument("--patterns", type=int, default=10_000,
                         help="initial SI pattern count N_r")
    compact.add_argument("--parts", type=int, default=4,
                         help="number of core groups")
    compact.add_argument("--seed", type=int, default=1)
    compact.set_defaults(func=_cmd_compact)

    # The ten plan kinds, generated from the knob schema.  The eight
    # sweeps take the uniform runner flags; the single-shot optimize and
    # evaluate take only the no-op --verify.
    for kind, schema in SCHEMA.items():
        command = sub.add_parser(kind, help=schema.help)
        _add_soc_and_knobs(command, schema)
        command.set_defaults(func=_cmd_plan)
    single_shot = ("optimize", "evaluate")
    for kind in SCHEMA:
        if kind not in single_shot:
            _add_experiment_flags(sub.choices[kind])
    for kind in single_shot:
        _add_verify_flag(sub.choices[kind])
    table = sub.choices["table"]
    table.add_argument("--json", help="also write a JSON summary here")
    table.add_argument("--verbose", action="store_true")
    table.set_defaults(func=_cmd_table)
    optimize = sub.choices["optimize"]
    optimize.add_argument(
        "--utilization", action="store_true",
        help="also print the per-rail utilization report",
    )
    optimize.add_argument(
        "--save-arch", help="write the architecture to this JSON file"
    )
    optimize.set_defaults(func=_cmd_optimize)

    # bounds, svg and whatif run optimize's plan with its knobs.
    for name, func, help_text in (
        ("bounds", _cmd_bounds, "lower bounds and the optimality gap"),
        ("svg", _cmd_svg, "export the schedule as an SVG figure"),
        ("whatif", _cmd_whatif,
         "marginal pin/move analysis of the optimized design"),
    ):
        command = sub.add_parser(name, help=help_text)
        _add_soc_and_knobs(command, SCHEMA["optimize"])
        if name == "svg":
            command.add_argument("--out", default="schedule.svg")
        command.set_defaults(func=func)

    overhead = sub.add_parser("overhead",
                              help="DFT area cost of SI-capable wrappers")
    overhead.add_argument("soc")
    overhead.set_defaults(func=_cmd_overhead)

    synth = sub.add_parser("synth",
                           help="generate a synthetic ITC'02-style SOC")
    synth.add_argument("name")
    synth.add_argument("--cores", type=int, default=16)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", default="synth.soc")
    synth.set_defaults(func=_cmd_synth)

    coverage = sub.add_parser(
        "coverage", help="MA fault coverage of a random pattern set"
    )
    coverage.add_argument("soc")
    coverage.add_argument("--patterns", type=int, default=5_000)
    coverage.add_argument("--fanouts", type=int, default=2)
    coverage.add_argument("--locality", type=int, default=2)
    coverage.add_argument("--seed", type=int, default=1)
    coverage.set_defaults(func=_cmd_coverage)

    serve = sub.add_parser(
        "serve", help="run the optimization service (HTTP job server)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787,
        help="listen port (0 = pick a free port; the chosen port is "
        "printed on startup)",
    )
    serve.add_argument(
        "--state-dir", default="results/service",
        help="durable state root: the job journal and the shared "
        "evaluation cache live here",
    )
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per plan run (the warm pool is shared "
        "across all jobs)",
    )
    serve.add_argument(
        "--cache", default=None, metavar="DIR",
        help="shared evaluation cache directory "
        "(default: <state-dir>/cache)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=256,
        help="bounded job queue depth; submissions beyond it get "
        "429 + Retry-After",
    )
    serve.add_argument(
        "--policy", default=None, metavar="SPEC",
        help="run supervision policy applied to every job "
        "(same SPEC as the experiment commands)",
    )
    _add_verify_flag(serve)
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit an experiment to a running service"
    )
    kinds = submit.add_subparsers(dest="kind", required=True, metavar="KIND")
    common = _submit_parser()
    for kind, schema in SCHEMA.items():
        command = kinds.add_parser(kind, parents=[common], help=schema.help)
        _add_soc_and_knobs(command, schema)
        command.set_defaults(func=_cmd_submit)

    jobs_cmd = sub.add_parser(
        "jobs", help="list or inspect jobs on a running service"
    )
    jobs_cmd.add_argument(
        "job", nargs="?", default=None,
        help="job id for a detail view (omit to list all jobs)",
    )
    jobs_cmd.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="service base URL",
    )
    jobs_cmd.add_argument(
        "--watch", action="store_true",
        help="stream the job's event feed (ndjson) until it finishes; "
        "the exit code reflects the final state",
    )
    jobs_cmd.set_defaults(func=_cmd_jobs)

    from repro.runtime.cache import DEFAULT_STORE_DIR

    cache_cmd = sub.add_parser(
        "cache", help="inspect and maintain the on-disk evaluation cache"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    cache_verify = cache_sub.add_parser(
        "verify", help="integrity-check every store entry "
        "(checksums, format, key aliasing)"
    )
    cache_verify.add_argument(
        "dir", nargs="?", default=str(DEFAULT_STORE_DIR),
        help="cache store directory",
    )
    cache_verify.add_argument(
        "--quarantine", action="store_true",
        help="move each bad entry aside to <name>.corrupt so later runs "
        "recompute it",
    )
    cache_verify.add_argument(
        "--json", action="store_true",
        help="emit a JSON health report (entry/debris counts, bytes, "
        "per-kind totals, problems) instead of text",
    )
    cache_verify.set_defaults(func=_cmd_cache_verify)
    cache_gc = cache_sub.add_parser(
        "gc", help="prune quarantined entries, stale temp files, and "
        "entries of old store versions"
    )
    cache_gc.add_argument(
        "dir", nargs="?", default=str(DEFAULT_STORE_DIR),
        help="cache store directory",
    )
    cache_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be pruned without deleting anything",
    )
    cache_gc.set_defaults(func=_cmd_cache_gc)
    return parser


def _failure_exceptions() -> tuple:
    """The exception types that are *failed runs*, not crashes: they
    exit with the uniform ``failed`` code (1) and a one-line stderr
    diagnostic instead of a traceback."""
    from repro.resilience.validation import ValidationError
    from repro.resilience.verify import ScheduleVerificationError
    from repro.runtime.executor import CellError
    from repro.runtime.supervision import (
        CircuitOpenError,
        PlanDeadlineError,
        PolicyError,
    )
    from repro.service.client import ServiceError

    return (
        ValidationError,
        ScheduleVerificationError,
        CellError,
        CircuitOpenError,
        PlanDeadlineError,
        PolicyError,
        ServiceError,
        TimeoutError,
        ConnectionError,
    )


def main(argv: list[str] | None = None) -> int:
    from repro.runtime.status import EXIT_FAILED

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. `head`):
        # not an error.  Detach stdout so the interpreter's shutdown
        # flush does not raise again.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except _failure_exceptions() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
