"""Command line of the benchmark (``python3 -m benchmarks.e2e``).

``--workload W --seed N --seconds S --trace 0|1``
    One run — the form the driver calls: one fresh process measures, this
    one waits until every process the run started has ended.  The last
    line of standard output is one JSON object with exactly the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``: every
    end-to-end metric with ``--trace 0``, every per-layer metric with
    ``--trace 1``.
(no ``--workload``)
    Every workload, three untraced runs and one traced run each, every
    metric printed by name with its unit, ``.bench_e2e/results.json`` written.
``--smoke``
    The four workloads at tiny scale, one untraced and one traced run
    each, with the reference check.
``--repeat-check N``
    N back-to-back sets of the same code; fails when any end-to-end metric
    moved by more than half its bound.
``--compare A/results.json B/results.json``
    Per workload and metric: better / same / worse / unresolved.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import compare
from .manifest import ROOT, Manifest, ManifestError

#: Scratch space (log directories, checkpoints, span dumps, results);
#: inside the checkout, ignored by git.
WORK = ROOT / ".bench_e2e"
#: Untraced runs per workload in the full run; ``--compare`` reads their
#: medians and their spread.
RUNS = 3
RUN_PY = Path(__file__).with_name("run.py")
#: Set in the environment of the process that measures; the one the caller
#: started only supervises it.
INNER = "BENCH_E2E_INNER"
#: ``prctl`` option (Linux): orphaned descendants are re-parented to us.
PR_SET_CHILD_SUBREAPER = 36
#: How long processes the run left behind may take to end by themselves.
ORPHAN_GRACE_S = 5.0


# -- one run, in this process ------------------------------------------------------


def single_run(
    manifest: Manifest, workload: str, seed: int, seconds: float, trace: bool, scale: str
) -> Dict[str, Any]:
    """One run; returns the driver payload plus ``detail`` for the reports."""
    # Imported here: only this mode needs the program under test.
    from .measure import MIN_SEGMENTS, run_pass
    from .trace import Tracer, layer_metrics
    from .workloads import WORKLOADS

    manifest.check_workload(workload)
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    floor = MIN_SEGMENTS if scale == "full" else 8
    try:
        if not trace:
            result = run_pass(
                workload, seed, seconds, str(workdir), scale=scale, min_segments=floor
            )
            passes = [result]
            values, detail = result["values"], {"untraced": result}
        else:
            # Per-layer numbers come from separate passes over the same
            # stream shape at a quarter of the length.
            def quarter(label: str, restarts: int = 1, **more: Any) -> Dict[str, Any]:
                return run_pass(
                    workload,
                    seed,
                    seconds / 4,
                    str(workdir / label),
                    scale=scale,
                    setups=1,
                    restarts=restarts,
                    min_segments=floor // 4,
                    **more,
                )

            untraced = quarter("untraced", restarts=3)
            observed = quarter("observed", observe=True) if WORKLOADS[workload].observe_pass else None
            tracer = Tracer()
            tracer.install()
            try:
                traced = quarter("traced", tracer=tracer)
            finally:
                tracer.uninstall()
            traces = WORK / "trace"
            traces.mkdir(exist_ok=True)
            tracer.dump(str(traces / f"{workload}.spans"))
            values, shares = layer_metrics(tracer, traced, untraced, observed)
            passes = [p for p in (untraced, observed, traced) if p is not None]
            detail = {"untraced": untraced, "traced": traced, "shares": shares}
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": manifest.metrics(values, trace),
            "detail": detail,
            "first_failure": next((p["first_failure"] for p in passes if p["first_failure"]), None),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _children() -> List[int]:
    """Pids whose parent is this process."""
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    # "pid (comm) state ppid ..."; comm may hold spaces.
                    if handle.read().rpartition(")")[2].split()[1] == me:
                        found.append(int(entry))
            except OSError:
                pass
    return found


def _supervise(argv: Sequence[str]) -> int:
    """Run the measurement in a child; return once all it started has ended.

    The measuring process joins its worker processes in ``close()``, but
    the spawn context also starts multiprocessing's resource tracker, which
    ends only after its parent has, and a run that dies leaves its workers.
    This process therefore adopts the orphans of its descendants (Linux
    child subreaper), gives them ``ORPHAN_GRACE_S`` to end by themselves,
    kills what is left, and reaps every one before it exits itself.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, as before
    # One run = one fresh process with a fixed string-hash seed; spawned
    # worker processes inherit it.
    env = dict(os.environ, PYTHONHASHSEED="0", **{INNER: "1"})
    child = subprocess.Popen([sys.executable, str(RUN_PY), *argv], env=env)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: child.terminate())
    code = child.wait()
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            # What a killed run could not remove itself.
            shutil.rmtree(WORK / f"run-{child.pid}", ignore_errors=True)
            return code
        if pid == 0:
            if time.monotonic() > deadline:
                for orphan in _children():
                    os.kill(orphan, signal.SIGKILL)
            time.sleep(0.005)


def _contract_main(args: argparse.Namespace, manifest: Manifest) -> int:
    if os.environ.get(INNER) != "1":
        return _supervise(sys.argv[1:])
    # A terminated run unwinds like a failed one: scratch files are removed
    # on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    result = single_run(
        manifest, args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    detail = result.pop("detail")
    first_failure = result.pop("first_failure")
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump({**result, "detail": detail, "first_failure": first_failure}, handle)
    if first_failure:
        print(f"FAILED: {first_failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- many runs, one child process each ------------------------------------------------


def child_run(
    workload: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> Dict[str, Any]:
    """One run in a fresh child process; returns its payload with detail."""
    WORK.mkdir(exist_ok=True)
    detail = WORK / f"detail-{os.getpid()}.json"
    command = [
        sys.executable,
        str(RUN_PY),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(int(trace)),
        "--scale",
        scale,
        "--detail",
        str(detail),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"),
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        if not detail.exists():
            raise RuntimeError(
                f"run of {workload!r} exited {done.returncode} without a result:\n{done.stdout}"
            )
        with open(detail) as handle:
            return json.load(handle)
    finally:
        detail.unlink(missing_ok=True)


def _machine() -> Dict[str, Any]:
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _print_metrics(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:>16.4f} {metric['unit']}")


def _full_main(args: argparse.Namespace, manifest: Manifest) -> int:
    """Every workload: ``RUNS`` untraced runs + one traced; results.json."""
    WORK.mkdir(exist_ok=True)
    workloads = manifest.workloads
    results: Dict[str, Any] = {name: {"runs": []} for name in workloads}
    failed = 0
    for run in range(RUNS):
        # Workloads interleaved within a set, so drift lands on all alike.
        for name in workloads:
            payload = child_run(name, args.seed, args.seconds, False)
            results[name]["runs"].append(payload)
            failed += payload["failed"]
            print(f"[run {run + 1}/{RUNS}] {name}: {payload['failed']} failed", file=sys.stderr)
    for name in workloads:
        payload = child_run(name, args.seed, args.seconds, True)
        results[name]["trace"] = payload
        failed += payload["failed"]
    summary: Dict[str, Any] = {"workloads": {}}
    for name in workloads:
        runs = results[name]["runs"]
        medians = compare.medians(runs)
        last = runs[-1]["detail"]["untraced"]
        print(f"\n== {name} — {manifest.why[name]}")
        _print_metrics(
            f"end to end (median of {len(runs)} run(s); "
            f"write p50 over {last['write_samples']} calls in {last['segments']} segments, "
            f"p99 {last['write_p99_us']:.1f} us):",
            {k: {"value": v, "unit": manifest.end_to_end[k]["unit"]} for k, v in medians.items()},
        )
        trace = results[name]["trace"]
        _print_metrics("per layer (traced pass):", trace["metrics"])
        print("share of traced write time by layer self time:")
        for layer, share in trace["detail"]["shares"].items():
            print(f"  {layer:<42} {share:>16.4f}")
        attempted = sum(r["attempted"] for r in runs) + trace["attempted"]
        bad = sum(r["failed"] for r in runs) + trace["failed"]
        print(f"ops_attempted {attempted}  ops_failed {bad}")
        summary["workloads"][name] = {**medians, "ops_attempted": attempted, "ops_failed": bad}
    document = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": _machine(),
        "workloads": results,
        "claim": None,
    }
    with open(WORK / "results.json", "w") as handle:
        json.dump(document, handle)
    print(f"\nresults written to {WORK / 'results.json'}", file=sys.stderr)
    # This benchmark defines the baseline; it claims no gain.
    summary["claim"] = None
    print(json.dumps(summary, indent=1))
    return 1 if failed else 0


def _smoke_main(args: argparse.Namespace, manifest: Manifest) -> int:
    started = time.perf_counter()
    failed = 0
    for name in manifest.workloads:
        for trace in (False, True):
            payload = child_run(name, args.seed, 0.2, trace, scale="smoke")
            failed += payload["failed"]
            print(
                f"{name:<14} trace={int(trace)} attempted={payload['attempted']:<7} "
                f"failed={payload['failed']} metrics={len(payload['metrics'])}"
            )
            if payload["first_failure"]:
                print(f"  FAILED: {payload['first_failure']}")
    print(f"smoke: {time.perf_counter() - started:.1f} s, {failed} failed")
    return 1 if failed else 0


def _repeat_check_main(args: argparse.Namespace, manifest: Manifest) -> int:
    sets: List[Dict[str, Dict[str, Any]]] = []
    for index in range(args.repeat_check):
        current: Dict[str, Dict[str, Any]] = {}
        for name in manifest.workloads:
            current[name] = child_run(name, args.seed, args.seconds, False)
            print(f"[set {index + 1}/{args.repeat_check}] {name} done", file=sys.stderr)
        sets.append(current)
    report, ok = compare.repeat_report(manifest, sets)
    print(report)
    print()
    print(compare.estimator_study(manifest, sets))
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat-check", type=int, nargs="?", const=5, metavar="N")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"), help=argparse.SUPPRESS)
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        manifest = Manifest()
        if args.seconds is None:
            args.seconds = float(manifest.run_seconds)
        if args.compare:
            report, ok = compare.compare_report(manifest, *args.compare)
            print(report)
            return 0 if ok else 1
        if args.workload:
            return _contract_main(args, manifest)
        if args.smoke:
            return _smoke_main(args, manifest)
        if args.repeat_check:
            return _repeat_check_main(args, manifest)
        return _full_main(args, manifest)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
