"""One workload process: set up, then run the fixed job list in rounds.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Started by run.py with ``src`` on PYTHONPATH.  Prints ``READY`` once set-up
is done (run.py times set-up from process start to that line), then runs
whole rounds of the job list, one job at a time, for about SECONDS.  With
TRACE 1 the first half of the time runs untraced and the second half
traced, which gives the tracing overhead and lets every traced digest be
compared with an untraced one.  A machine-speed probe (calibrate.py) runs,
untimed, before every job and once more right after ``READY``.  The last
stdout line is a JSON report.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy
import scipy

import calibrate
import scoutsim
import workloads
from tracing import TRACER

HERE = Path(__file__).resolve().parent


class Runner:
    def __init__(self, workload: str, seed: int):
        self.jobs = workloads.build(workload, seed)
        refs = json.loads((HERE / "reference.json").read_text())
        self.reference = refs.get(workload, {}).get(str(seed))
        if self.reference and len(self.reference) != len(self.jobs):
            raise RuntimeError("reference.json is stale: regenerate it with make_reference.py")
        self.expected = list(self.reference or [None] * len(self.jobs))
        # per round: summed job latency, median probe time, latency of each job
        self.walls: list[float] = []
        self.probes: list[float] = []
        self.latencies: list[list[float | None]] = []
        self.failures: list[str] = []
        self.attempted = 0

    def run_round(self) -> Counter:
        """One pass over the job list, each job preceded by an untimed probe;
        returns the round's logical counts."""
        wall = 0.0
        logical: Counter = Counter()
        probes: list[float] = []
        latencies: list[float | None] = [None] * len(self.jobs)
        for j, job in enumerate(self.jobs):
            probes.append(calibrate.probe())
            TRACER.job = self.attempted
            self.attempted += 1
            TRACER.kept.clear()
            start = time.perf_counter()
            try:
                out = job.call()
            except Exception as exc:
                wall += time.perf_counter() - start
                self.failures.append(f"job {j} ({job.kind}): {type(exc).__name__}: {exc}")
                TRACER.job_failed(exc)
                continue
            latency = time.perf_counter() - start
            wall += latency
            latencies[j] = latency
            try:
                parts, counts = job.finish(out)
            except workloads.CheckFailed as exc:
                self.failures.append(f"job {j} ({job.kind}): check failed: {exc}")
                continue
            except Exception as exc:
                self.failures.append(f"job {j} ({job.kind}): output unreadable: "
                                     f"{type(exc).__name__}: {exc}")
                continue
            logical.update(counts)
            got = workloads.digest(parts)
            if self.expected[j] is None:
                self.expected[j] = got
            elif got != self.expected[j]:
                self.failures.append(f"job {j} ({job.kind}): digest {got[:16]} "
                                     f"!= expected {self.expected[j][:16]}")
        self.walls.append(wall)
        self.probes.append(statistics.median(probes))
        self.latencies.append(latencies)
        return logical

    def run_for(self, seconds: float) -> Counter:
        """Whole rounds while the next one is expected to end within ``seconds``."""
        start = time.perf_counter()
        deadline = start + seconds
        elapsed: list[float] = []
        logical: Counter = Counter()
        while not elapsed or time.perf_counter() + statistics.median(elapsed) <= deadline:
            logical.update(self.run_round())
            elapsed.append(time.perf_counter() - start - sum(elapsed))
        return logical


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    TRACER.install_capture()
    runner = Runner(workload, seed)
    print("READY", flush=True)
    report = {"setup_probe_s": calibrate.probe_median()}
    if "--setup-only" in argv:
        print(json.dumps(report), flush=True)
        return 0
    report.update({"jobs_per_round": len(runner.jobs),
                   "reference": "stored" if runner.reference else "self-consistency"})
    if not trace:
        logical = runner.run_for(seconds)
        untraced = len(runner.walls)
    else:
        runner.run_for(seconds / 2)
        untraced = len(runner.walls)
        TRACER.start_tracing()
        logical = runner.run_for(seconds / 2)
        scaled = [w * calibrate.REF_PROBE_S / p for w, p in zip(runner.walls, runner.probes)]
        traced_scale = calibrate.REF_PROBE_S / statistics.median(runner.probes[untraced:])
        report["overhead_frac"] = (statistics.median(scaled[untraced:])
                                   / statistics.median(scaled[:untraced]) - 1)
        report["layers"] = TRACER.layer_metrics(len(runner.walls) - untraced, logical,
                                                traced_scale)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        TRACER.write(out_dir / f"spans-{workload}-seed{seed}.csv")
    measured = len(runner.walls) - untraced if trace else untraced
    report.update({
        "rounds": runner.walls[:untraced],
        "round_probes": runner.probes[:untraced],
        "latencies": runner.latencies[:untraced],
        "attempted": runner.attempted,
        "failures": runner.failures,
        "logical_per_round": {k: v // measured for k, v in logical.items()},
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "scoutsim": scoutsim.__version__},
    })
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
