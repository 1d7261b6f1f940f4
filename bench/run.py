"""Run the repository benchmark (workloads and metrics: ``BENCHMARK.json``).

One workload::

    python3 bench/run.py --workload prune-heavy --seed 1 --seconds 15 --trace 0

sets the workload up ``SETUP_REPEATS`` times, measures it for
``--seconds``, checks its answers against a reference and prints a
summary; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
A traced run measures half the time untraced and half with the ledger
wrappers and the engine's span tracer on.

Every workload, each in a fresh interpreter::

    python3 bench/run.py --seed 1 [--repeat N] [--traced] [--smoke]
                         [--out DIR] [--json FILE]

``--repeat N`` runs seeds ``seed .. seed+N-1``; ``--json`` saves the runs
for ``compare.py``; ``--smoke`` shrinks every workload about 20 times.
The exit code is non-zero when any answer was wrong.  The package is
imported from the checkout's ``src``; without it the run fails before
measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: host-speed probes taken just before and just after each set-up
SETUP_PROBES = 3
#: seconds of the whole smoke run's windows
SMOKE_SECONDS = 1.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _children() -> list[int]:
    """Live (or unreaped) child processes of this process."""
    me = os.getpid()
    kids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry.name))
    return kids


def _segments() -> set[str]:
    return {p.name for p in Path("/dev/shm").glob("pinls_*")}


def _leftovers(segments_before: set[str]) -> list[str]:
    problems = []
    deadline = time.monotonic() + 5.0
    while _children() and time.monotonic() < deadline:
        time.sleep(0.05)
    if _children():
        problems.append(f"child processes left running: {_children()}")
    leaked = _segments() - segments_before
    if leaked:
        problems.append(f"shared-memory segments left: {sorted(leaked)}")
    return problems


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            out: Path | None, spec: dict) -> int:
    from ledger import Ledger, per_layer_metrics
    from probe import SpeedProbe
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    env = _env()
    segments_before = _segments()
    workload = None
    if not trace:
        probe = SpeedProbe()
        setups = []
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            for _ in range(SETUP_PROBES):
                probe.sample()
            started = time.perf_counter()
            workload = cls(seed, smoke, env)
            ended = time.perf_counter()
            for _ in range(SETUP_PROBES):
                probe.sample()
            setups.append((ended - started) * probe.scale(started, ended))
        try:
            window = workload.measure(seconds)
            rss = workload.peak_rss_mb()
            failures = workload.check()
        finally:
            workload.close()
        windows = [window]
        lat = window.latencies
        values = {
            "setup_s": (statistics.median(setups), len(setups)),
            "latency_p50_ms": (float(np.percentile(lat, 50)) * 1000.0,
                               len(lat)),
            "latency_p90_ms": (float(np.percentile(lat, 90)) * 1000.0,
                               len(lat)),
            "throughput_per_s": (window.work / window.seconds,
                                 window.attempted),
            "peak_rss_mb": (rss, 1),
        }
        declared = spec["end_to_end"]
    else:
        workload = cls(seed, smoke, env)
        try:
            untraced = workload.measure(seconds / 2)
            ledger = Ledger()
            workload.start_tracing(ledger, out)
            traced = workload.measure(seconds / 2)
            inputs = workload.trace_inputs(traced, ledger)
            failures = workload.check()
            if out is not None:
                workload.write_spans(out, seed)
        finally:
            workload.close()
        windows = [untraced, traced]
        layer = per_layer_metrics(
            ops=len(traced.latencies), wall_s=traced.busy_s,
            slowdown=traced.slowdown,
            overhead_ratio=(statistics.median(traced.latencies)
                            / statistics.median(untraced.latencies)),
            table_build_s=workload.table_build_s, **inputs,
        )
        values = {k: (v, len(traced.latencies)) for k, v in layer.items()}
        declared = spec["per_layer"]
    failures += _leftovers(segments_before)

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        print(f"run.py: metrics {sorted(values)} do not match "
              f"BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 3
    units = {m["name"]: m["unit"] for m in declared}
    print(f"{name} seed={seed} seconds={seconds:g}"
          f"{' traced' if trace else ''}")
    for metric in names:
        value, samples = values[metric]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {metric:<36} {shown} {units[metric]:<6} n={samples}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows) + len(failures)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric][0], "unit": units[metric]}
            for metric in names
        },
    }))
    return 0 if correct else 1


def host_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_all(args, seconds: float, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    trace = int(args.trace or args.traced)
    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            if args.out is not None:
                cmd += ["--out", str(args.out)]
            proc = subprocess.run(cmd, env=_env(), capture_output=True,
                                  text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 0, "failed": 1,
                          "metrics": {}}
                print(f"{name} seed={seed}: no result "
                      f"(exit {proc.returncode})", flush=True)
            runs.append({"workload": name, "seed": seed, **result})
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "host": host_info(), "seconds": seconds, "trace": trace,
            "smoke": args.smoke, "runs": runs,
        }, indent=1) + "\n")
    wrong = [r for r in runs if not r["correct"]]
    for r in wrong:
        print(f"WRONG {r['workload']} seed={r['seed']}: "
              f"{r['failed']} failed of {r['attempted']}")
    return 1 if wrong else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", help="run this workload only, "
                        "in this interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: BENCHMARK.json "
                        "run_seconds, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, help="directory for span files")
    parser.add_argument("--json", type=Path, help="save every run here")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, seconds, spec)
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(known)}")
    return run_one(args.workload, args.seed, seconds,
                   bool(args.trace or args.traced), args.smoke, args.out,
                   spec)


if __name__ == "__main__":
    sys.exit(main())
