"""Benchmark of the evpoly command line, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 20 --trace 0

Each op is an in-process call of ``evpoly.cli.main(argv)`` on inputs made
from the seed; ops run one after another (closed loop, one client) in whole
passes over the workload's op list, and every op's output is checked.
Op times are rescaled to a reference CPU speed with a probe timed between
ops.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  The next to last line of stdout holds the run's
details (metadata, per-op outcomes), the last line the result.  See
README.md.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here or in a child
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("analyze-large", "analyze-corpus", "resample-export", "projective-sweep")
SETUP_RUNS = 3      # fresh interpreters timed for setup_s; the median is reported
# The probe's time at the reference CPU speed (about its time on the VM the
# baseline was taken on, in that VM's faster state): every timing is rescaled
# by PROBE_REF_S / (median probe time near it).  See README.md, "Reference speed".
PROBE_REF_S = 0.0027
PROBE_WINDOW_S = 0.5  # the probes this close to an op set its speed factor
MIN_PASSES = 3      # per run; more while the next pass is expected to fit
MAX_TRACED_RUN_PASSES = 6  # a traced run keeps every span in memory
WARMUP_SCALE = 0.005


class _Stderr(io.StringIO):
    """Collects the CLI's stderr and the class of the exception it reports."""

    error = None

    def write(self, text):
        exc = sys.exc_info()[1]  # the CLI prints its diagnostic inside `except`
        if exc is not None and self.error is None:
            self.error = type(exc).__name__
        return super().write(text)


def probe() -> float:
    """Wall time of a fixed mix of Python bytecode and small numpy calls."""
    import numpy as np

    t0 = perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i % 7
    a = np.linspace(-1.0, 1.0, 300).reshape(-1, 3)
    b = a[::-1].copy()
    for _ in range(50):
        a = np.cross(a, b)
        a = a / (1.0 + np.linalg.norm(a, axis=1, keepdims=True))
    return perf_counter() - t0


@dataclass
class Result:
    op: object
    vertices: int
    elapsed: float
    outcome: str             # "ok", "known" (a failure seen at the seed) or "failed"
    exit: object             # exit code, or "exception"
    error: str | None        # class of the exception behind a nonzero exit
    detail: str | None       # last stderr line, or the check mismatch
    values: dict = field(default_factory=dict)
    start: float = 0.0
    speed: float = 1.0       # PROBE_REF_S over the median probe time near the op

    @property
    def ref_elapsed(self) -> float:
        """Wall time rescaled to the reference speed."""
        return self.elapsed * self.speed


def measure_setup(runs: int) -> tuple:
    """Median (reference-speed, wall) time of a fresh interpreter running ``import evpoly.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import evpoly.cli"]

    def once() -> float:
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    once()  # byte-compiles the package on a fresh checkout
    ref, wall = [], []
    before = probe()
    for _ in range(runs):
        t = once()
        after = probe()
        ref.append(t * 2 * PROBE_REF_S / (before + after))
        wall.append(t)
        before = after
    return statistics.median(ref), statistics.median(wall)


def _input_vertices(op) -> int:
    if isinstance(op.vertices, int):
        return op.vertices
    try:  # a document written by an earlier op of the pass
        return len(json.loads(Path(op.vertices).read_text())["vertices"])
    except (OSError, ValueError, KeyError):
        return 0


def run_op(cli_main, op, tracer=None, op_id=None) -> Result:
    from workloads import Mismatch

    for path in op.outputs:
        path.unlink(missing_ok=True)
    vertices = _input_vertices(op)
    err = _Stderr()
    span = tracer.op(op_id) if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            with span:
                code = cli_main(op.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash inside the program fails the op, not the run
            code, err.error = "exception", type(exc).__name__
            err.write(traceback.format_exc().splitlines()[-1])
        elapsed = perf_counter() - t0
    lines = err.getvalue().strip().splitlines()
    detail, values, signature = (lines[-1] if lines else None), {}, None
    if code == 0:
        try:
            values = op.check()
        except Mismatch as exc:
            signature, detail = f"check:{exc.key}", str(exc)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            signature, detail = "check:unreadable", f"{type(exc).__name__}: {exc}"
    else:
        signature = f"exit {code}"
    outcome = "ok" if signature is None else "known" if signature == op.known else "failed"
    return Result(op, vertices, elapsed, outcome, code, err.error, detail, values, t0)


def run_passes(cli_main, ops, seconds: float, tracer=None) -> list:
    """Whole passes over ``ops``; with a tracer, every second pass is traced.

    Returns [(traced, [Result, ...]), ...].
    """
    passes, longest, probes = [], 0.0, []

    def timed_probe():
        probes.append((perf_counter(), probe()))

    start = perf_counter()
    cap = MAX_TRACED_RUN_PASSES if tracer is not None else float("inf")
    while len(passes) < MIN_PASSES or (perf_counter() - start + longest <= seconds
                                       and len(passes) < cap):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        t0 = perf_counter()
        results = []
        timed_probe()
        try:
            for op in ops:
                results.append(run_op(cli_main, op, tracer if traced else None,
                                      f"{len(passes)}:{op.name}"))
                timed_probe()
        finally:
            if traced:
                tracer.uninstall()
        longest = max(longest, perf_counter() - t0)
        passes.append((traced, results))
    _set_speed([r for _, rs in passes for r in rs], probes)
    return passes


def _set_speed(results: list, probes: list) -> None:
    """Speed factor of each op from the median of the probes within PROBE_WINDOW_S of it."""
    times = [t for t, _ in probes]
    for r in results:
        lo = bisect.bisect_left(times, r.start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, r.start + r.elapsed + PROBE_WINDOW_S)
        r.speed = PROBE_REF_S / statistics.median(d for _, d in probes[lo:hi])


def timing_metrics(passes: list, elapsed) -> dict:
    """vertices_per_s, op_p50_ms and op_p90_ms, with ``elapsed(result)`` as the op time.

    The percentiles are taken over the ops of one pass, and the median over
    the passes is reported: a pass holds a fixed mix of op types, and the
    percentile of the pooled samples can sit on the edge between two types.
    """
    import numpy as np

    ok_by_op = defaultdict(list)
    for r in (r for rs in passes for r in rs):
        if r.outcome == "ok":
            ok_by_op[r.op.name].append(r)
    # per op: its input vertices over its median time, summed over the ops that succeeded
    vertices = sum(rs[0].vertices for rs in ok_by_op.values())
    busy = sum(statistics.median(elapsed(r) for r in rs) for rs in ok_by_op.values())
    p50, p90 = zip(*(np.percentile([elapsed(r) * 1e3 for r in rs], (50, 90)) for rs in passes))
    return {
        "vertices_per_s": (vertices / busy if busy else 0.0, "vertex/s"),
        "op_p50_ms": (float(statistics.median(p50)), "ms"),
        "op_p90_ms": (float(statistics.median(p90)), "ms"),
    }


def end_to_end_metrics(passes: list, setup_s: float) -> dict:
    from evpoly.projective import SPIRAL_SMOOTH_LENGTH

    results = [r for rs in passes for r in rs]
    ok = [r for r in results if r.outcome == "ok"]
    sweep = [r.values for r in ok if "sweep_n" in r.values]
    pl1 = max(sweep, key=lambda v: v["sweep_n"])["pl1"] if sweep else 0.0
    return {
        "setup_s": (setup_s, "s"),
        **timing_metrics(passes, lambda r: r.ref_elapsed),
        "ok_frac": (len(ok) / len(results), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # with no sweep op that succeeded, pl1 counts as 0: relative error 1
        "pl1_rel_err": (abs(pl1 - SPIRAL_SMOOTH_LENGTH) / SPIRAL_SMOOTH_LENGTH, "1"),
    }


def per_layer_metrics(tracer, passes: list) -> dict:
    from spans import PER_VERTEX, counter_names, self_times, span_names

    traced = [rs for t, rs in passes if t]
    untraced = [rs for t, rs in passes if not t]
    k = len(traced)
    agg = defaultdict(lambda: defaultdict(float))
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        a = agg[s["name"]]
        a["self_s"] += own
        a["calls"] += 1
        a["failed"] += s["failed"]
        a["vertices"] += s["vertices"]
        a["bytes"] += s.get("bytes", 0)
        a["out_vertices"] += s.get("out_vertices", 0)
        a["span_s"] += s["end"] - s["start"]
    m = {}
    for name in span_names():
        a, module = agg[name], name.split(".")[0]
        m[f"{name}.self_s"] = (a["self_s"] / k, "s")
        m[f"{name}.calls"] = (a["calls"] / k, "count")
        m[f"{name}.failed"] = (a["failed"] / k, "count")
        if module in PER_VERTEX:
            us = a["self_s"] * 1e6 / a["vertices"] if a["vertices"] else 0.0
            m[f"{name}.us_per_vertex"] = (us, "us/vertex")
        else:
            m[f"{name}.bytes"] = (a["bytes"] / k, "bytes")
    resample = agg["equal_volume.resample_equal_volume"]
    m["equal_volume.resample_equal_volume.kept_frac"] = (
        resample["out_vertices"] / resample["vertices"] if resample["vertices"] else 0.0, "1")
    for name in counter_names():
        m[f"{name}.calls"] = (tracer.counts[f"{name}.calls"] / k, "count")
    m["cli.self_s"] = (agg["cli"]["self_s"] / k, "s")
    m["cli.op_s"] = (agg["cli"]["span_s"] / k, "s")
    def pass_s(group):
        return statistics.median(sum(r.ref_elapsed for r in rs) for rs in group)
    m["trace_overhead_frac"] = (pass_s(traced) / pass_s(untraced) - 1.0, "1")
    return m


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def op_summary(results: list) -> list:
    by_op = defaultdict(list)
    for r in results:
        by_op[r.op.name].append(r)
    return [{"op": name, "vertices": rs[-1].vertices, "runs": len(rs),
             "outcomes": sorted({r.outcome for r in rs}), "exit": rs[-1].exit,
             "error": rs[-1].error, "detail": rs[-1].detail,
             "median_ms": statistics.median(r.elapsed for r in rs) * 1e3}
            for name, rs in by_op.items()]


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            scale: float = 1.0, setup_runs: int = SETUP_RUNS):
    """One run: returns (details, result) as printed by ``main``, plus the tracer."""
    # the probe must see the CPU the ops run on: this VM's vCPUs change speed independently
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s, setup_wall_s = (None, None) if trace else measure_setup(setup_runs)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import evpoly
    import evpoly.cli
    if Path(evpoly.__file__).resolve().parent != SRC / "evpoly":
        raise ImportError(f"evpoly imported from {evpoly.__file__}, not from {SRC}")
    from spans import Tracer
    from workloads import WORKLOADS

    build = WORKLOADS[workload]
    (work / "warmup").mkdir(parents=True, exist_ok=True)
    for op in build(seed, work / "warmup", WARMUP_SCALE):  # imports, caches, lazy set-up
        run_op(evpoly.cli.main, op)
    ops = build(seed, work, scale)
    tracer = Tracer() if trace else None
    passes = run_passes(evpoly.cli.main, ops, seconds, tracer)
    results = [r for _, rs in passes for r in rs]
    untraced = [rs for traced, rs in passes if not traced]
    metrics = per_layer_metrics(tracer, passes) if trace else end_to_end_metrics(untraced, setup_s)
    failed = sum(r.outcome == "failed" for r in results)
    wall = {name: v for name, (v, _) in timing_metrics(untraced, lambda r: r.elapsed).items()}
    details = {"workload": workload, "meta": metadata(seed), "seconds": seconds,
               "trace": int(trace), "passes": len(passes), "op_samples": len(results),
               "wall": dict(wall, setup_s=setup_wall_s),
               "probe_ms": statistics.median(PROBE_REF_S / r.speed for r in results) * 1e3,
               "ops": op_summary(results)}
    result = {"correct": failed == 0, "attempted": len(results), "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    return details, result, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "evpoly" / "__init__.py").is_file():
        print(f"perfbench: no evpoly package under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"run-{os.getpid()}"
    try:
        details, result, tracer = measure(args.workload, args.seed, args.seconds,
                                          bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"spans": tracer.spans}))
        details["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
