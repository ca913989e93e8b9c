"""scoutsim benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh worker process (closed loop, one client,
single-threaded), checks every job's output digest, and prints each metric
by name with its unit.  With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run.  Times are scaled by the machine speed measured next to
them (calibrate.py).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep2d_hitting", "iid_walks", "renewal_cli", "exact_analysis")
SETUP_PROBES = 4           # extra fresh processes that only set up
WORKER_GRACE_S = 120       # beyond --seconds, before the worker is killed


def start_worker(src: Path, args, *extra: str):
    """Start a worker; return it with its set-up time (start to READY)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return proc, setup


def finish_worker(proc, timeout: float) -> str:
    """Wait for a worker and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def machine_record(src: Path, args, report: dict) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    loc = sum(len(p.read_text().splitlines()) for p in (src / "scoutsim").glob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        **report["versions"], "src_scoutsim_lines": loc, "reference": report["reference"],
        "jobs_per_round": report["jobs_per_round"], "round_s": report["rounds"],
        "round_probe_s": report["round_probes"], "ref_probe_s": calibrate.REF_PROBE_S,
        "jobs_attempted": report["attempted"],
        "logical_per_round": report["logical_per_round"],
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "scoutsim" / "__init__.py").is_file():
        print("error: run from the root of a scoutsim checkout (src/scoutsim missing)",
              file=sys.stderr)
        return 2

    try:
        proc, setup = start_worker(src, args)
        report = json.loads(finish_worker(proc, args.seconds + WORKER_GRACE_S))
        setups = [(setup, report["setup_probe_s"])]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, probe_setup = start_worker(src, args, "--setup-only")
                probe_report = json.loads(finish_worker(probe, WORKER_GRACE_S))
                setups.append((probe_setup, probe_report["setup_probe_s"]))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(report["failures"])
    attempted = report["attempted"]
    for failure in report["failures"]:
        print("FAILED", failure)
    record = machine_record(src, args, report)
    # every time is scaled by the machine speed measured next to it
    scales = [calibrate.REF_PROBE_S / probe for probe in report["round_probes"]]
    latencies = [t * scale for row, scale in zip(report["latencies"], scales)
                 for t in row if t is not None]
    if not latencies:
        print("error: no job succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics = dict(report["layers"])
        metrics["trace.overhead_frac"] = (report["overhead_frac"], "ratio")
    else:
        tail, pct, beyond = tail_latency(latencies)
        raw = [t for row in report["latencies"] for t in row if t is not None]
        record.update(tail_percentile=round(pct, 2), tail_jobs_beyond=beyond,
                      jobs_timed=len(latencies), setup_samples=setups,
                      failed_frac=failed / attempted,
                      raw_s={"setup_s": statistics.median(t for t, _ in setups),
                             "wall_s": statistics.median(report["rounds"]),
                             "job_p50_s": statistics.median(raw),
                             "job_tail_s": tail_latency(raw)[0]})
        metrics = {
            "setup_s": (statistics.median(t * calibrate.REF_PROBE_S / probe
                                          for t, probe in setups), "s"),
            "wall_s": (statistics.median(w * scale for w, scale
                                         in zip(report["rounds"], scales)), "s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_tail_s": (tail, "s"),
            "peak_rss_mib": (report["peak_rss_kib"] / 1024.0, "MiB"),
        }
    print("record", json.dumps(record, sort_keys=True))
    if report["reference"] != "stored":
        print(f"warning: no stored digests for seed {args.seed} (reference.json holds "
              "seeds 0-63); each round was checked against this run's first round "
              "and the independent checks only")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
