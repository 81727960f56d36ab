"""Closed-loop benchmark of linkbomb: `sweep`, `cli` and `disguise` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 30 --trace 0

One process, one client: each op starts when the previous one has ended.
Library and CLI calls run in-process against `./src`, with BLAS/OpenMP
pinned to one thread. Every op's output is checked outside the timed
region; a failed check or a raised exception counts as a failed op and
the run goes on.

Times are reported at reference speed. On a shared machine the CPU's
speed drifts by tens of percent over minutes, which swamps any change to
the code. So a fixed probe kernel (`SpeedProbe`) is timed before the
first op and after every op, outside the timed region, and each op's
wall time is scaled by PROBE_NOMINAL_S over the median of the probes
nearest to it: the time the op would take on a machine where the probe
takes PROBE_NOMINAL_S. Raw wall-clock figures and the probe times are
printed next to the scaled ones.

`--trace 0` prints the end-to-end metrics. `--trace 1` first runs the
untraced loop for half the time, then replays the same ops with every
layer function wrapped (see spans.py), and prints per-layer metrics per
op plus the tracing overhead. The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
DIGEST_OPS = 50  # the digest covers this many leading ops, so it does not depend on speed
OUT_DIR = Path(".perfbench_out")
PROBE_NOMINAL_S = 0.008  # about the probe's time on a 2-vCPU x86 cloud VM
PROBE_WINDOW = 3  # probes on each side of an op whose median sets its speed


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly past the nearest-rank q-th percentile position."""
    return count - max(1, math.ceil(q / 100.0 * count))


class SpeedProbe:
    """A fixed kernel of dict updates and sparse mat-vecs, the two kinds of
    work linkbomb spends its time on, timed to track the machine's speed."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        self._m = sp.random(1000, 1000, density=0.005, format="csr", random_state=np.random.default_rng(1))
        self._x = np.ones(1000)
        self.samples: list[float] = []

    def __call__(self) -> float:
        gc.disable()  # a collection would time the benchmark's heap, not the machine
        try:
            t0 = perf_counter()
            counts: dict[tuple[int, int], int] = {}
            for i in range(8000):
                key = (i, i * 7 % 1000)
                counts[key] = counts.get(key, 0) + 1
            y = self._x
            for _ in range(300):
                y = self._m @ y * 0.5 + 0.1
            self.samples.append(perf_counter() - t0)
        finally:
            gc.enable()
        return self.samples[-1]

    def timed(self, fn):
        """Run fn between two probes; return (result, wall seconds, position of the probe after it)."""
        if not self.samples:
            self()
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - t0
            self()
        return result, wall, len(self.samples) - 1

    def scale(self, wall: float, pos: int) -> float:
        """`wall` seconds of work done just before probe `pos`, at reference speed.
        Call once the probes after it are taken."""
        window = self.samples[max(0, pos - PROBE_WINDOW):pos + PROBE_WINDOW]
        return wall * PROBE_NOMINAL_S / statistics.median(window)

    def summary(self) -> str:
        ms = sorted(1e3 * s for s in self.samples)
        return (f"speed probe {statistics.median(ms):.3f} ms median, {ms[0]:.3f}-{ms[-1]:.3f} ms range, "
                f"{len(ms)} samples; nominal {1e3 * PROBE_NOMINAL_S:g} ms")


def _import_linkbomb(root: Path) -> None:
    src = root / "src"
    if not (src / "linkbomb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no linkbomb sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import linkbomb

    if Path(linkbomb.__file__).resolve().parent != (src / "linkbomb").resolve():
        sys.exit(f"perfbench: imported linkbomb from {linkbomb.__file__}, not from {src}")


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(root: Path, args, info) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((root / "src" / "linkbomb").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(root),
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **info,
    }


class Loop:
    """Runs ops closed-loop and keeps wall times, failures and per-op digests.

    Lists are indexed by op id, the final op last.
    """

    def __init__(self, workload, probe: SpeedProbe, tracer=None):
        self.workload = workload
        self.probe = probe
        self.tracer = tracer
        self.wall: list[float] = []
        self._probe_pos: list[int] = []
        self.failures: list[str] = []
        self.digests: list[str] = []

    def latencies(self) -> list[float]:
        """Per-op latency at reference speed."""
        return [self.probe.scale(w, p) for w, p in zip(self.wall, self._probe_pos)]

    def run(self, op_ids, seconds: float | None = None) -> int:
        """Run ops until `seconds` of wall time in ops, then the final op; return the count before it."""
        done = 0
        for i in op_ids:
            if seconds is not None and sum(self.wall) >= seconds:
                break
            self._one(i, self.workload.op(i))
            done += 1
        final = self.workload.final_op()
        if final is not None:
            self._one(done, final)
        return done

    def _one(self, i: int, op) -> None:
        def attempt():
            if self.tracer:
                self.tracer.begin_op(i)
            try:
                return op.run(), None
            except Exception:  # a failed op is counted, not fatal
                return None, traceback.format_exc()
            finally:
                if self.tracer:
                    self.tracer.end_op()

        (out, tb), wall, pos = self.probe.timed(attempt)
        self.wall.append(wall)
        self._probe_pos.append(pos)
        if tb is None:
            try:
                text = op.check(out)
            except Exception:  # CheckError, or a malformed output the check choked on
                tb = traceback.format_exc()
        if tb is not None:
            self.failures.append(f"op {i} ({op.kind}): {tb}")
            self.digests.append("failed")
            print(f"perfbench: op {i} ({op.kind}) failed:\n{tb}", file=sys.stderr)
            return
        self.digests.append(hashlib.sha256(text.encode()).hexdigest())

    def digest(self) -> tuple[str, int]:
        head = self.digests[:DIGEST_OPS]
        return hashlib.sha256("\n".join(head).encode()).hexdigest()[:16], len(head)


def timing_values(latencies) -> dict[str, float]:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:  # before numpy is first imported, in _import_linkbomb
        os.environ[var] = "1"
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    _import_linkbomb(root)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    probe = SpeedProbe()
    setups = []  # (wall seconds, probe position)
    for _ in range(SETUP_REPEATS):
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        workload = cls(args.seed, workdir)
        info, *timing = probe.timed(workload.setup)
        setups.append(timing)
    env = environment(root, args, info)
    print("# env " + json.dumps(env, sort_keys=True))

    if args.trace:
        return _traced(args, spec, workload, probe, env, spans)

    loop = Loop(workload, probe)
    loop.run(itertools.count(), args.seconds)
    ops, failed = len(loop.wall), len(loop.failures)
    values = timing_values(loop.latencies())
    values["failed_frac"] = failed / ops
    values["setup_s"] = statistics.median(probe.scale(w, p) for w, p in setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = timing_values(loop.wall)
    raw["setup_s"] = statistics.median(w for w, _ in setups)
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "failed_frac": "fraction",
             "setup_s": "s", "peak_rss_mb": "MB"}
    for name, value in values.items():
        note = f" at reference speed ({raw[name]:.6g} wall)" if name in raw else ""
        print(f"# {args.workload} {name} = {value:.6g} {units[name]}{note}")
    print(f"# {args.workload} samples = {ops} ops in {sum(loop.wall):.3f} s wall, "
          f"{samples_beyond(ops, 90)} beyond p90; {failed} failed; {SETUP_REPEATS} setups")
    print(f"# {args.workload} {probe.summary()}")
    digest, covered = loop.digest()
    print(f"# {args.workload} digest = {digest} over the first {covered} ops")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed, "metrics": metrics}))
    return 0


def _traced(args, spec, workload, probe, env, spans) -> int:
    plain = Loop(workload, probe)
    ops = plain.run(itertools.count(), args.seconds / 2.0)

    workload.reset()
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS)
    traced = Loop(workload, probe, tracer)
    try:
        traced.run(range(ops))
    finally:
        tracer.uninstall()

    # Tracing must not change any output: compare op by op with the plain run.
    for i, (a, b) in enumerate(zip(plain.digests, traced.digests)):
        if a != b:
            traced.failures.append(f"op {i}: traced output differs from the untraced one")
    attempted = len(plain.wall) + len(traced.wall)
    failed = len(plain.failures) + len(traced.failures)

    plain_lat, traced_lat = plain.latencies(), traced.latencies()
    overhead = sum(traced_lat) / sum(plain_lat) - 1.0
    names = [m["name"] for m in spec["per_layer"]]
    speed = [s / w for s, w in zip(traced_lat, traced.wall)]
    layer = spans.per_op_metrics(tracer.layer_totals(speed), names, len(traced.wall))
    layer["trace.overhead_frac"] = overhead
    absent = [n for n in names if not n.startswith("trace.") and n not in tracer.provided]

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file, {"env": env, "columns": ["name", "start", "end", "parent", "op"]})
    untraced_rate = timing_values(plain_lat)["ops_per_s"]
    traced_rate = timing_values(traced_lat)["ops_per_s"]
    print(f"# {args.workload} traced {len(traced.wall)} ops: {traced_rate:.4g} ops/s traced vs "
          f"{untraced_rate:.4g} ops/s untraced at reference speed, overhead {overhead:+.2%}")
    hook_errors = {k: v for k, v in tracer.counts.items() if k.endswith(".hook_errors")}
    print(f"# {args.workload} absent targets: {tracer.absent or 'none'}; absent metrics: {absent or 'none'}; "
          f"hook errors: {hook_errors or 'none'}")
    print(f"# {args.workload} spans: {len(tracer.spans)} written to {span_file}; {probe.summary()}")
    digest, covered = traced.digest()
    print(f"# {args.workload} digest = {digest} over the first {covered} ops (traced)")
    metrics = {}
    for m in spec["per_layer"]:
        entry = {"value": layer[m["name"]], "unit": m["unit"]}
        if m["name"] in absent:
            entry["absent"] = True
        metrics[m["name"]] = entry
        print(f"# {args.workload} {m['name']} = {entry['value']:.6g} {m['unit']}"
              + (" (absent)" if m["name"] in absent else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
