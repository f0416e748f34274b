"""polykn benchmark: construct, verify and search workloads, one process each.

    python3 bench/run.py --workload built-ladder --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Workloads are defined in workloads.py.  The package is imported from the
checkout's src/.  Set-up (a fresh import plus seeded input generation and
filtering) runs SETUP_REPEATS times and reports its median as setup_s.
With --trace 0 the workload's passes repeat until --seconds is used up and
each group of like ops is timed at its median; scaled_cpu_s sums, per pass,
every group's ops at that median.  With --trace 1 the workload's first pass
runs once untraced and once with spans around the calls into every module
(tracing.py), and the per-layer metrics come from those spans.  Every op's
output is checked outside the timed region; an exception or a wrong output
counts as a failed op and the run goes on.

Op and set-up times are CPU seconds of the process's one thread
(thread_time), scaled to a nominal machine speed.  SpeedSampler times
reference(), a fixed piece of pure-Python work, every SAMPLE_EVERY_S of CPU
time; an op's CPU time is multiplied by REF_NOMINAL_S over the reference
times taken during and next to it.  The program does no I/O, so CPU time
leaves out only the time a shared or virtual machine gives to others; the
scaling takes out the speed changes of a shared core, which reach 40% from
one minute to the next on a 2-core virtual machine.  The unscaled CPU time
of a pass's ops (mean) and the median elapsed time of a pass are reported
as cpu_s and pass_wall_s.  Spans and trace_overhead_ratio use unscaled CPU
times, with no sampler running.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it report every
metric by name with its unit, the workload's properties, the verdict
digest, the op groups, and nproc, the Python version and the commit.  The
traced run writes its spans to .bench_out/ in the checkout.  --smoke runs
tiny sizes for bench/test_bench.py.  Exit code 2: the package cannot be
imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
REF_NOMINAL_S = 0.0015  # CPU seconds of one reference() call at the nominal speed
SAMPLE_EVERY_S = 0.25  # CPU seconds between two timings of reference()
SAMPLE_WINDOW_S = 0.25  # timings this close to an op set the speed it ran at

# gated metrics: every workload reports each of them
END_TO_END = (("scaled_cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# per-workload group metrics, reported where the workload has such ops
GROUP_METRICS = ("construct_s", "certify_s", "verify_f1_s", "verify_f2_s", "verify_hc_s",
                 "improve_s", "search_full_s", "search_structured_s")


def import_package():
    """A fresh import of polykn from the checkout's src/."""
    for name in [m for m in sys.modules if m == "polykn" or m.startswith("polykn.")]:
        del sys.modules[name]
    import polykn
    import polykn.cli  # noqa: F401  (the perturbed workload parses CLI documents)

    if Path(polykn.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"polykn imported from {polykn.__file__}, not from {ROOT / 'src'}")
    return polykn


def reference() -> int:
    """Fixed pure-Python work (integers, dict, list, sort): the yardstick."""
    counts: dict[int, int] = {}
    pairs = []
    x = 0
    for i in range(2000):
        x = (x * 31 + i) & 0xFFFFF
        counts[x & 511] = counts.get(x & 511, 0) + (x >> 3)
        pairs.append((x & 255, i))
    pairs.sort()
    return len(counts)


class SpeedSampler:
    """Times reference() every SAMPLE_EVERY_S of this process's CPU time.

    A SIGPROF timer interrupts whatever runs, so a long op is scaled by the
    speed it ran at, not only by the speed at its ends.  The samples' own CPU
    time is counted apart and taken out of the op they interrupted.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (CPU clock, reference() CPU s)
        self.own_s = 0.0

    def sample(self, *_signal) -> None:
        start = time.thread_time()
        reference()
        elapsed = time.thread_time() - start
        self.samples.append((start, elapsed))
        self.own_s += elapsed

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.sample()

    def scale(self, start: float, end: float, cpu_s: float) -> float:
        """CPU seconds of an op run from start to end, at the nominal speed."""
        near = [d for t, d in self.samples
                if start - SAMPLE_WINDOW_S <= t <= end + SAMPLE_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return cpu_s * statistics.mean(REF_NOMINAL_S / d for d in near)


def timed(call, sampler: Optional[SpeedSampler]):
    """call() and its (start, end, CPU seconds), the sampler's time taken out."""
    own = sampler.own_s if sampler else 0.0
    start = time.thread_time()
    result = call()
    end = time.thread_time()
    return result, (start, end, end - start - ((sampler.own_s if sampler else 0.0) - own))


def set_up(cls, seed: int, smoke: bool, sampler: Optional[SpeedSampler]):
    """The workload, and the (start, end, CPU seconds) of each set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload, span = timed(lambda: cls(import_package(), seed, smoke), sampler)
        times.append(span)
    return workload, times


class Stats:
    """Op times per group, failures and the verdict digest of one phase."""

    def __init__(self, sampler: Optional[SpeedSampler] = None):
        self.sampler = sampler
        self.timed: list[tuple] = []  # (label, metric, start, end, CPU s) per checked op
        self.pass_wall: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.verdicts: dict[str, tuple] = {}  # of the first pass
        self.op_cpu_s = 0.0  # unscaled, over all ops

    def run(self, op, tracer) -> None:
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
        try:
            op.result, (start, end, cpu_s) = timed(op.call, self.sampler)
            self.op_cpu_s += cpu_s
            verdict = op.check(op.result)
        except Exception:  # a failed op is counted, reported, and the run goes on
            self.failed += 1
            print(f"# FAILED op {op.label} [{op.key}]:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return
        op.ok = True
        label = f"{op.label} {verdict[0]}" if verdict else op.label
        self.timed.append((label, op.metric, start, end, cpu_s))
        if verdict and not self.pass_wall:
            self.verdicts[op.key] = verdict

    def groups(self) -> dict[str, tuple[str, list[float]]]:
        """Group label -> (metric, scaled op times)."""
        out: dict[str, tuple[str, list[float]]] = {}
        for label, metric, start, end, cpu_s in self.timed:
            out.setdefault(label, (metric, []))[1].append(self.sampler.scale(start, end, cpu_s))
        return out

    def group_metrics(self) -> dict[str, float]:
        """Each group metric: per pass, each group's ops at their median time.

        A single slow input moves the median of its group, not the sum.
        """
        out: dict[str, float] = {}
        for metric, times in self.groups().values():
            per_pass = len(times) / len(self.pass_wall)
            out[metric] = out.get(metric, 0.0) + per_pass * statistics.median(times)
        return out

    def violated_share(self) -> Optional[float]:
        verify = [v for v, _ in self.verdicts.values() if v in ("violated", "polychromatic")]
        return verify.count("violated") / len(verify) if verify else None

    def digest(self) -> str:
        rows = sorted([key, *v] for key, v in self.verdicts.items())
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def measure(passes, seconds: float, tracer=None, sampler=None) -> Stats:
    """Run passes until the next one would overrun `seconds` (at least one)."""
    stats = Stats(sampler)
    start = time.perf_counter()
    for ops in passes:
        gc.collect()
        begin = time.perf_counter()
        for op in ops:
            stats.run(op, tracer)
        stats.pass_wall.append(time.perf_counter() - begin)
        if time.perf_counter() - start + stats.pass_wall[-1] > seconds:
            break
    return stats


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args) -> dict:
    cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        workload, _ = set_up(cls, args.seed, args.smoke, None)
        # the trace set is the first pass, run untraced and then traced
        stats = measure(workload.passes(), 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload.passes(), 0, tracer)
        finally:
            tracer.uninstall()
        overhead = traced.op_cpu_s / stats.op_cpu_s
        values = tracer.per_layer(overhead)
        metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
        attempted, failed = stats.attempted + traced.attempted, stats.failed + traced.failed
    else:
        with SpeedSampler() as sampler:
            workload, setups = set_up(cls, args.seed, args.smoke, sampler)
            stats = measure(workload.passes(), args.seconds, sampler=sampler)
        setup_s = statistics.median(sampler.scale(*span) for span in setups)
        attempted, failed = stats.attempted, stats.failed
        groups = stats.group_metrics()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"scaled_cpu_s": (sum(groups.values()), "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (rss_mb, "MB"),
                   "cpu_s": (stats.op_cpu_s / len(stats.pass_wall), "s"),
                   "pass_wall_s": (statistics.median(stats.pass_wall), "s")}
        metrics.update({m: (groups[m], "s") for m in GROUP_METRICS if m in groups})
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(f"# workload {args.workload}: {workload.why}")
    print(f"# seed={args.seed} trace={args.trace} smoke={int(args.smoke)}"
          f" passes={len(stats.pass_wall)} nproc={os.cpu_count()}"
          f" python={platform.python_version()} commit={commit()}")
    print(f"# property combed_share {workload.combed_share()} ratio")
    violated = stats.violated_share()
    print(f"# property violated_share {'n/a' if violated is None else violated} ratio")
    print(f"# digest {stats.digest()} over {len(stats.verdicts)} inputs")
    if not args.trace:
        for label, (_, times) in sorted(stats.groups().items()):
            print(f"# group {label}: {len(times)} ops, {len(times) / len(stats.pass_wall):g}"
                  f" per pass, median {statistics.median(times):.6g} s")
    if tracer and tracer.absent:
        print(f"# absent hooks: {' '.join(tracer.absent)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric failed_ratio {failed / attempted:.6g} ratio")
    gated = END_TO_END if not args.trace else [(n, u) for n, u, _ in PER_LAYER]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in gated}}


def run_all(args) -> dict:
    """Each workload in a fresh single-threaded process of its own."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        result["correct"] &= child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        result["metrics"].update({f"{name}.{m}": v for m, v in child["metrics"].items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import polykn from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
