"""Command-line interface: ``prime-ls <experiment>`` or ``python -m repro``.

Runs any of the paper's experiments and prints its table; ``list``
shows what is available.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

import repro.experiments as experiments


def _registry() -> dict[str, tuple[str, Callable[[], object]]]:
    """Experiment name -> (description, zero-arg runner)."""
    return {
        "table2": (
            "dataset statistics vs the paper's Table 2",
            experiments.run_table2,
        ),
        "precision": (
            "Tables 3-4: P@K / AP@K of PRIME-LS vs RANGE vs BRNN*",
            lambda: experiments.run_precision_experiment(groups=10),
        ),
        "fig8-f": (
            "Fig 8: runtime vs #candidates (Foursquare-like)",
            lambda: experiments.run_candidate_scalability("F"),
        ),
        "fig8-g": (
            "Fig 8: runtime vs #candidates (Gowalla-like)",
            lambda: experiments.run_candidate_scalability("G"),
        ),
        "fig9": (
            "Fig 9: runtime vs #objects (Gowalla-like)",
            lambda: experiments.run_object_scalability("G"),
        ),
        "fig10-f": (
            "Fig 10: pruning effect vs tau (Foursquare-like)",
            lambda: experiments.run_pruning_effect("F"),
        ),
        "fig10-g": (
            "Fig 10: pruning effect vs tau (Gowalla-like)",
            lambda: experiments.run_pruning_effect("G"),
        ),
        "remark": (
            "S4.3 Remark: analytic vs measured pruning model",
            experiments.run_pruning_model_check,
        ),
        "fig11a": (
            "Fig 11a / Table 5: effect of n (natural groups)",
            lambda: experiments.run_effect_n_groups("G"),
        ),
        "fig11b": (
            "Fig 11b: effect of n (subsampled instances)",
            lambda: experiments.run_effect_n_resampled("G"),
        ),
        "fig12-f": (
            "Fig 12: effect of tau (Foursquare-like)",
            lambda: experiments.run_effect_tau("F"),
        ),
        "fig12-g": (
            "Fig 12: effect of tau (Gowalla-like)",
            lambda: experiments.run_effect_tau("G"),
        ),
        "fig13": (
            "Fig 13: <n, tau> level curve",
            lambda: experiments.run_n_tau_levelcurve("G"),
        ),
        "fig14-f": (
            "Fig 14: effect of lambda (Foursquare-like)",
            lambda: experiments.run_effect_lambda("F"),
        ),
        "fig14-g": (
            "Fig 14: effect of lambda (Gowalla-like)",
            lambda: experiments.run_effect_lambda("G"),
        ),
        "fig15-f": (
            "Fig 15: effect of rho (Foursquare-like)",
            lambda: experiments.run_effect_rho("F"),
        ),
        "fig15-g": (
            "Fig 15: effect of rho (Gowalla-like)",
            lambda: experiments.run_effect_rho("G"),
        ),
        "fig16": (
            "Fig 16: alternative probability functions",
            lambda: experiments.run_pf_variants("F"),
        ),
        "sampling": (
            "S6.2: how many trajectory samples suffice (24-48 claim)",
            experiments.run_sampling_tradeoff,
        ),
        "stability": (
            "extension: bootstrap/noise robustness of the mined location",
            experiments.run_location_stability,
        ),
    }


def _cmd_demo(out_svg: str | None) -> int:
    """Solve the quickstart world and optionally render the scene."""
    import numpy as np

    from repro import PowerLawPF, select_location
    from repro.datasets import tiny_demo

    world = tiny_demo()
    dataset = world.dataset
    candidates, _ = dataset.sample_candidates(40, np.random.default_rng(0))
    pf = PowerLawPF()
    result = select_location(dataset.objects, candidates, pf=pf, tau=0.7)
    best = result.best_candidate
    print(
        f"optimal location: candidate {best.candidate_id} at "
        f"({best.x:.2f}, {best.y:.2f}) km, influence "
        f"{result.best_influence}/{dataset.n_objects}"
    )
    print(
        f"pruned {result.instrumentation.pruned_fraction():.0%} of pairs, "
        f"{result.elapsed_seconds * 1000:.1f} ms"
    )
    if out_svg:
        from repro.viz import render_scene
        from repro.viz.scene import save_scene

        svg = render_scene(dataset.objects[:4], candidates, pf, 0.7, best=best)
        print(f"scene written to {save_scene(out_svg, svg)}")
    return 0


def _cmd_export(registry, name: str, out_csv: str) -> int:
    from repro.experiments.export import export_result

    if name not in registry:
        print(f"unknown experiment {name!r}; run 'prime-ls list'", file=sys.stderr)
        return 2
    __, runner = registry[name]
    result = runner()
    print(result.render())
    print(f"\nCSV written to {export_result(result, out_csv)}")
    return 0


def _cmd_trace_summary(path: str | None) -> int:
    """Print the per-phase breakdown of a trace file's span trees."""
    from repro.engine import TraceReadError, read_trace_file, summarize_traces

    if not path:
        print(
            "prime-ls trace-summary: needs a trace file, e.g. "
            "'prime-ls trace-summary traces.jsonl' (write one with "
            "QueryEngine(objects, trace_path='traces.jsonl'))",
            file=sys.stderr,
        )
        return 2
    try:
        traces = read_trace_file(path)
    except TraceReadError as exc:
        print(f"prime-ls trace-summary: {exc}", file=sys.stderr)
        return 2
    print(summarize_traces(traces))
    return 0


def _cmd_serve(
    port: int,
    host: str,
    workers: int,
    pool: bool,
    approx: bool,
    max_inflight: int | None,
    max_queue_depth: int | None,
    shed_policy: str | None,
    drain_seconds: float | None,
    inject_faults: list[str] | None,
) -> int:
    """Run the HTTP front end over a synthetic world until SIGTERM."""
    from repro.datasets import gowalla_like
    from repro.engine import (
        SHED_POLICIES,
        FaultInjector,
        FaultSpec,
        QueryEngine,
        TenantAdmission,
        TenantBudget,
        run_server,
    )

    if not 0 <= port <= 65535:
        print(f"--port must be in [0, 65535], got {port}", file=sys.stderr)
        return 2
    if workers < 0:
        print(f"--workers must be >= 0, got {workers}", file=sys.stderr)
        return 2
    if pool and workers < 2:
        print("--pool needs --workers >= 2", file=sys.stderr)
        return 2
    if workers >= 2 and not pool:
        print("--workers >= 2 needs --pool", file=sys.stderr)
        return 2
    if max_inflight is not None and max_inflight < 1:
        print(
            f"--max-inflight must be >= 1, got {max_inflight}",
            file=sys.stderr,
        )
        return 2
    if max_queue_depth is not None and max_queue_depth < 0:
        print(
            f"--max-queue-depth must be >= 0, got {max_queue_depth}",
            file=sys.stderr,
        )
        return 2
    if shed_policy is not None and shed_policy not in SHED_POLICIES:
        print(
            f"--shed-policy must be one of {', '.join(SHED_POLICIES)}; "
            f"got {shed_policy!r}",
            file=sys.stderr,
        )
        return 2
    if drain_seconds is not None and drain_seconds < 0:
        print(
            f"--drain-seconds must be >= 0, got {drain_seconds}",
            file=sys.stderr,
        )
        return 2
    faults = []
    for text in inject_faults or []:
        try:
            faults.append(FaultSpec.parse(text))
        except ValueError as exc:
            print(f"--inject-fault: {exc}", file=sys.stderr)
            return 2
    # Engine-level admission stays off: the front end admits per
    # tenant, and a second budget in the engine would double-count.
    engine = QueryEngine(
        gowalla_like(scale=0.05, seed=7).dataset.objects,
        workers=workers,
        pool=pool,
        approx=approx,
        fault_injector=FaultInjector(faults) if faults else None,
    )
    tenants = TenantAdmission(
        default=TenantBudget(
            max_inflight=max_inflight if max_inflight is not None else 4,
            max_queue_depth=max_queue_depth,
            policy=shed_policy or "reject",
        )
    )
    from repro.engine.server import DEFAULT_DRAIN_SECONDS

    return run_server(
        engine,
        host=host,
        port=port,
        tenants=tenants,
        drain_seconds=(
            drain_seconds if drain_seconds is not None
            else DEFAULT_DRAIN_SECONDS
        ),
    )


#: which option flags each command actually consumes; anything else on
#: the command line would be silently dropped, so we reject it instead
_ALLOWED_FLAGS = {
    "demo": {"--svg"},
    "serve": {
        "--port", "--host", "--workers", "--pool", "--approx",
        "--max-inflight", "--max-queue-depth", "--shed-policy",
        "--drain-seconds", "--inject-fault",
    },
    "trace-summary": set(),
    "list": set(),
    "report": set(),
    "all": set(),
}
_EXPERIMENT_FLAGS = {"--csv"}


def _check_flags(command: str, provided: set[str], is_experiment: bool) -> int:
    """Exit code 0 if every provided flag is consumed, else 2."""
    allowed = _EXPERIMENT_FLAGS if is_experiment else _ALLOWED_FLAGS.get(
        command, set()
    )
    ignored = sorted(provided - allowed)
    if not ignored:
        return 0
    print(
        f"prime-ls {command}: {', '.join(ignored)} "
        f"{'is' if len(ignored) == 1 else 'are'} not used by this command",
        file=sys.stderr,
    )
    return 2


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    registry = _registry()
    parser = argparse.ArgumentParser(
        prog="prime-ls",
        description="Reproduce the PINOCCHIO paper's experiments.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="list",
        help=(
            "experiment name, 'all', 'list' (default), 'demo', "
            "'serve', or 'trace-summary'"
        ),
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="with 'trace-summary': the trace JSONL file to summarise",
    )
    parser.add_argument(
        "--svg",
        metavar="PATH",
        help="with 'demo': also render the scene to an SVG file",
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        help="export the experiment's sweep series to a CSV file",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with 'serve': pool worker processes "
            "(>= 2 needs --pool; default 0 = serial)"
        ),
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "with 'serve': inject a fault, "
            "KIND[:WORKER[:QUERY[:SECONDS]]] with KIND one of "
            "crash/exception/delay (worker kinds) or "
            "overload/memory-pressure/exact-down (parent kinds) and "
            "'*' meaning any (e.g. crash:1, exact-down::2); repeatable"
        ),
    )
    parser.add_argument(
        "--pool",
        action="store_true",
        default=False,
        help=(
            "with 'serve': serve queries from the persistent "
            "fork worker pool (needs --workers >= 2)"
        ),
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with 'serve': per-tenant budget of concurrently admitted "
            "requests (default 4); excess requests wait in line or "
            "are shed"
        ),
    )
    parser.add_argument(
        "--shed-policy",
        default=None,
        metavar="POLICY",
        help=(
            "with 'serve': which requests to shed when a tenant's "
            "budget overflows — reject (default), oldest, or "
            "by-priority"
        ),
    )
    parser.add_argument(
        "--approx",
        action="store_true",
        default=False,
        help=(
            "with 'serve': arm the engine's approximate tier — "
            "over-budget requests, or queries stranded by open "
            "exact-tier breakers (inject with "
            "--inject-fault exact-down), are answered from influence "
            "sketches with an advertised error bound"
        ),
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="with 'serve': port to bind (0 = ephemeral; default 8321)",
    )
    parser.add_argument(
        "--host",
        default=None,
        metavar="HOST",
        help="with 'serve': address to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with 'serve': per-tenant waiting-line depth behind "
            "--max-inflight (default: equal to --max-inflight)"
        ),
    )
    parser.add_argument(
        "--drain-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with 'serve': how long a SIGTERM drain waits for "
            "in-flight requests before cancelling them (default 5)"
        ),
    )
    args = parser.parse_args(argv)

    provided = set()
    if args.svg is not None:
        provided.add("--svg")
    if args.csv is not None:
        provided.add("--csv")
    if args.workers is not None:
        provided.add("--workers")
    if args.inject_fault is not None:
        provided.add("--inject-fault")
    if args.pool:
        provided.add("--pool")
    if args.max_inflight is not None:
        provided.add("--max-inflight")
    if args.shed_policy is not None:
        provided.add("--shed-policy")
    if args.approx:
        provided.add("--approx")
    if args.port is not None:
        provided.add("--port")
    if args.host is not None:
        provided.add("--host")
    if args.max_queue_depth is not None:
        provided.add("--max-queue-depth")
    if args.drain_seconds is not None:
        provided.add("--drain-seconds")
    is_experiment = args.experiment in registry
    code = _check_flags(args.experiment, provided, is_experiment)
    if code:
        return code
    if args.path is not None and args.experiment != "trace-summary":
        print(
            f"prime-ls {args.experiment}: unexpected argument "
            f"{args.path!r} (only 'trace-summary' takes a file)",
            file=sys.stderr,
        )
        return 2

    if args.experiment == "list":
        width = max(len(name) for name in registry)
        for name, (description, _) in registry.items():
            print(f"{name.ljust(width)}  {description}")
        return 0
    if args.experiment == "demo":
        return _cmd_demo(args.svg)
    if args.experiment == "trace-summary":
        return _cmd_trace_summary(args.path)
    if args.experiment == "serve":
        return _cmd_serve(
            port=args.port if args.port is not None else 8321,
            host=args.host or "127.0.0.1",
            workers=args.workers if args.workers is not None else 0,
            pool=args.pool,
            approx=args.approx,
            max_inflight=args.max_inflight,
            max_queue_depth=args.max_queue_depth,
            shed_policy=args.shed_policy,
            drain_seconds=args.drain_seconds,
            inject_faults=args.inject_fault,
        )
    if args.experiment == "report":
        from repro.experiments.report import generate_report

        path, checks = generate_report()
        failed = [c for c in checks if not c.passed]
        print(f"report written to {path} ({len(checks)} claims checked)")
        for check in failed:
            print(f"FAILED: {check.claim} — {check.measured}", file=sys.stderr)
        return 1 if failed else 0
    if args.experiment == "all":
        for name, (_, runner) in registry.items():
            print(f"=== {name} ===")
            print(runner().render())
            print()
        return 0
    if args.csv:
        return _cmd_export(registry, args.experiment, args.csv)
    if args.experiment not in registry:
        print(
            f"unknown experiment {args.experiment!r}; run 'prime-ls list'",
            file=sys.stderr,
        )
        return 2
    __, runner = registry[args.experiment]
    print(runner().render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
