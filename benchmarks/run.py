"""Benchmark for salypath: training, prediction and evaluation.

    python3 benchmarks/run.py --workload train-desk --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. One process runs one workload: it makes the inputs from the
seed, warms up untimed, then runs whole rounds of the workload's
operations for ``--seconds`` and checks the outputs. With ``--trace 0``
it reports the end-to-end metrics of those rounds, and the set-up time
from repeats made between them. With ``--trace 1`` it alternates
untraced and traced rounds, reports per-layer metrics from the traced
ones (tracing overhead is the gap between the two), runs the conv kernel
probe and writes the spans to ``benchmarks/out/``. The last line of
stdout is one JSON object.
"""

import os
import sys

# One BLAS thread and one eval worker: on a shared two-core machine more
# threads made batch-1 forward times spread from 28-34 ms to 22-50 ms, and
# the eval pool is bound by the GIL. Must be set before numpy loads.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "SALYPATH_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def set_up(wl, root: Path) -> float:
    """Wall time of one set-up: a fresh interpreter imports the whole
    program, then ``wl`` makes its inputs under ``root``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import salypath.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    wl.setup(root)
    return time.perf_counter() - t0


class Runner:
    """Runs operations, counts attempts and failures, and times them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = defaultdict(list)         # untraced rounds
        self.traced_times = defaultdict(list)  # traced rounds
        self.tracer = None                     # set while a traced round runs
        self.recording = False

    def op(self, kind, fn, *args, expect=None):
        """Run ``fn(*args)`` with its console output captured. Returns its
        result, or None when it raised or did not return ``expect``."""
        self.attempted += 1
        span = self.tracer.span(f"bench.{kind}") if self.tracer else contextlib.nullcontext()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except Exception:
                result = traceback.format_exc()
                ok = False
            else:
                ok = expect is None or result == expect
            dt = (time.perf_counter() - t0) * 1e3
        if not ok:
            self.failed += 1
            print(f"operation {kind} failed: {result!r}\n{sink.getvalue()}", file=sys.stderr)
            return None
        if self.recording:
            (self.traced_times if self.tracer else self.times)[kind].append(dt)
        return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "salypath" / "__init__.py").is_file():
        print(f"run.py: no salypath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import salypath  # noqa: F401

    if Path(salypath.__file__).resolve().parent != SRC / "salypath":
        print(f"run.py: imported salypath from {salypath.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probe
    import tracing
    from workloads import PER_LAYER, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = WORKLOADS[args.workload](args.seed)
        setup_times = [set_up(wl, work / "inputs")]
        repeats = 1 if args.trace else SETUP_REPEATS

        def set_up_again():
            # a throwaway copy of the same set-up, made between rounds: a
            # burst of set-ups before timing would sample one machine state
            root = work / f"setup{len(setup_times)}"
            setup_times.append(set_up(WORKLOADS[args.workload](args.seed), root))
            shutil.rmtree(root)

        run = Runner()
        tracer = tracing.Tracer()
        wl.warmup(run)
        run.recording = True
        rounds = 0
        measured_s = round_s = 0.0
        # whole rounds until --seconds of them have run, stopping at the
        # round boundary nearest to it
        while rounds == 0 or measured_s + round_s / 2 <= args.seconds:
            r0 = time.perf_counter()
            if not args.trace:
                wl.round(run)
            else:
                # untraced and traced rounds in pairs, alternately first, so a
                # drift in machine speed does not bias the overhead figure
                for traced in (False, True) if rounds % 2 == 0 else (True, False):
                    run.tracer = tracer if traced else None
                    with tracer.patched() if traced else contextlib.nullcontext():
                        wl.round(run)
                run.tracer = None
            rounds += 1
            round_s = time.perf_counter() - r0
            measured_s += round_s
            while (len(setup_times) < repeats
                   and len(setup_times) <= (repeats - 1) * measured_s / args.seconds):
                set_up_again()
        while len(setup_times) < repeats:
            set_up_again()
        setup_s = statistics.median(setup_times)
        # before the checks, which build models and reference maps of their own
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bad = wl.check()

        primary, secondary = wl.end_to_end(run.times)
        print(f"workload {wl.name} seed {args.seed}: {rounds} rounds in {measured_s:.1f} s, "
              f"{run.attempted} operations, {run.failed} failed")
        for line in getattr(wl, "notes", []):
            print(f"  check: {line}")
        for line in bad:
            print(f"  CHECK FAILED: {line}", file=sys.stderr)
        if not args.trace:
            metrics = {"primary_ms": (primary, "ms"), "secondary_ms": (secondary, "ms"),
                       "setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MiB")}
            print(f"  {wl.labels[0]} = primary_ms = {primary:.3f} ms")
            print(f"  {wl.labels[1]} = secondary_ms = {secondary:.3f} ms")
            print(f"  setup_s = {setup_s:.3f} s, peak_rss_mb = {rss_mb:.1f} MiB")
        else:
            metrics = {name: (0.0, unit) for name, unit in PER_LAYER.items()}
            layer_values = wl.layers(tracer)
            layer_values.update({k: v for k, (v, _) in probe.run().items()})
            roots = [r for r in tracer.roots if r.name == f"bench.{wl.primary}"]
            everything = tracing.Profile(tracer.roots)
            for layer, ms in everything.layer_self_ms().items():
                layer_values[f"{layer}.self_pct"] = 100.0 * ms / everything.wall_ms
            layer_values["trace.attributed_pct"] = tracing.Profile(roots).attributed_pct()
            plain = statistics.median(run.times[wl.primary])
            traced = statistics.median(run.traced_times[wl.primary])
            layer_values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
            unknown = set(layer_values) - set(PER_LAYER)
            if unknown:
                raise KeyError(f"per-layer metrics missing from the table: {sorted(unknown)}")
            for name, value in layer_values.items():
                metrics[name] = (value, PER_LAYER[name])
            for name, (value, unit) in metrics.items():
                print(f"  {name:44s} {value:12.4f} {unit}")
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            trace_file = out / f"trace-{wl.name}-seed{args.seed}.json"
            tracer.dump(trace_file, {n: v for n, (v, _) in metrics.items()})
            print(f"  spans written to {trace_file.relative_to(ROOT)}")
        result = {"correct": not bad, "attempted": run.attempted, "failed": run.failed,
                  "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
