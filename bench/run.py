"""cutcal benchmark: whole CLI commands in a closed loop, timed end to end,
and per layer in a separate traced run.

    python3 bench/run.py --workload calibrate|trials|bulk-log|all \\
        --seed N --seconds S --trace 0|1

Each op runs ``cutcal.cli.main(argv)`` in-process, one command after the
other, on input files the set-up made from ``--seed`` (one client, no
threads). The program under test is ``src/cutcal`` beside this directory;
without it the benchmark exits 1 and prints no result. Every op's outputs
are checked outside the timed region; an op whose command exits non-zero,
raises, or fails its check counts as failed.

Timings are taken at a fixed reference speed. On a shared host the same code
runs up to twice as slow while neighbours load the core, in bursts of
milliseconds to whole minutes, so raw wall times of one seed can differ by a
third from run to run. A fixed probe kernel (small numpy products and float
text round trips, no cutcal code) runs for a short slice before every CLI
command of an op and after the last. Its mean call time on both sides of a
command, over REFERENCE_PROBE_S, is the command's contention factor; an op's
adjusted time is the sum of its commands' wall times, each divided by its
factor. The reference is the fastest probe call seen on the machine the
baseline was measured on, so adjusted times estimate that machine's
uncontended times; under contention that lasts a whole run, a run's own
fastest probe call is too slow to serve as the reference. Each input of the
pool keeps the median of its adjusted times, and op_p50_ms, op_p90_ms,
ops_per_s and rows_per_s are taken over those medians. setup_s is the median
of SETUP_REPEATS fresh imports of cutcal plus input set-ups, adjusted the
same way. The same figures from raw wall times, and the factors, are kept in
the run record.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics: every op then runs twice, untraced and traced (in
alternating order), and the difference is the tracing overhead. Per-layer
counts and times are per op. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it records the machine and the run. A result file with the per-function
table, and in traced runs the spans, are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
# Probe slice on each side of a command: this share of the input's last op
# time over its command count, and at least PROBE_MIN_S.
PROBE_SHARE = 0.1
PROBE_MIN_S = 0.002
# Poll interval and cap of the wait for the process's other threads to idle.
SETTLE_POLL_S = 0.002
SETTLE_MAX_S = 1.0
# Fastest probe kernel call seen on an Intel Xeon (2 vCPUs, Python 3.11.7,
# numpy 2.4.6); the speed adjusted times are given at.
REFERENCE_PROBE_S = 125e-6
MAX_FAILURES_SHOWN = 5

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_cutcal():
    """Import ``cutcal.cli`` afresh from ``src/``; exit 1 if it is not there."""
    if not (SRC / "cutcal" / "cli.py").is_file():
        raise SystemExit(f"bench: no cutcal sources at {SRC}")
    for name in [n for n in sys.modules if n == "cutcal" or n.startswith("cutcal.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("cutcal.cli")
    if Path(cli.__file__).resolve().parent != SRC / "cutcal":
        raise SystemExit(f"bench: imported cutcal from {cli.__file__}, not from {SRC}")
    return cli


class Probe:
    """A fixed kernel timed in slices around the measured work: how much
    slower than at reference speed the machine runs just then. It uses no cutcal
    code, so a change to the program does not move it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(64)]
        self.chunks: list[float] = []  # seconds of every kernel call

    def _kernel(self) -> float:
        acc, s = np.eye(3), 1.0
        for m in self.mats:
            acc = m @ acc
            s = 0.5 * float(repr(s + float(acc[0, 0])))
        return s

    def sample(self, budget_s: float) -> list[float]:
        """Call the kernel for about `budget_s`; return each call's seconds."""
        times = []
        end = time.perf_counter() + budget_s
        while True:
            start = time.perf_counter()
            self._kernel()
            stop = time.perf_counter()
            times.append(stop - start)
            if stop >= end:
                break
        self.chunks.extend(times)
        return times


def settle() -> None:
    """Wait until no other thread of this process uses a CPU. numpy's BLAS
    workers spin for tens of milliseconds after their last call and slow
    whatever runs next to them, the probe too; a CLI command run on its own
    would not inherit that from the one before."""
    deadline = time.perf_counter() + SETTLE_MAX_S
    others = time.process_time() - time.thread_time()
    while time.perf_counter() < deadline:
        time.sleep(SETTLE_POLL_S)
        now = time.process_time() - time.thread_time()
        if now - others < 0.1 * SETTLE_POLL_S:
            return
        others = now


def probed(probe: Probe, budget_s: float, fn):
    """Run `fn` between two probe slices; return its result, its wall
    seconds and the mean probe call time around it."""
    around = probe.sample(budget_s)
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    settle()
    around += probe.sample(budget_s)
    return result, elapsed, sum(around) / len(around)


def set_up(name: str, seed: int, work: Path, sizes: dict, probe: Probe):
    """Import the program and make the workload's inputs, SETUP_REPEATS
    times; keep the last. Returns (cli, workload, (wall seconds, mean probe
    time around it) of each set-up)."""
    times = []
    for r in range(SETUP_REPEATS):

        def once(r=r):
            cli = load_cutcal()
            workload = WORKLOADS[name](seed, **sizes)
            workload.setup(cli, work / f"setup{r}")
            return cli, workload

        budget = max(PROBE_MIN_S, PROBE_SHARE * times[-1][0]) if times else PROBE_MIN_S
        (cli, workload), elapsed, around = probed(probe, budget, once)
        times.append((elapsed, around))
        if r:
            shutil.rmtree(work / f"setup{r - 1}")
    return cli, workload, times


class Tally:
    """What a measured loop did. Per input of the workload's pool: for each
    passing op, (wall seconds, mean probe time around it) of each command,
    and the log rows one op writes plus reads."""

    def __init__(self):
        self.samples: dict[int, list[list[tuple[float, float]]]] = {}
        self.rows: dict[int, int] = {}
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []


def run_steps(cli, steps: list[list[str]]) -> tuple[float, str | None]:
    """Run CLI commands in order until one fails; return the seconds taken
    and the failure, if any."""
    error = None
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        start = time.perf_counter()
        for argv in steps:
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse usage error
                code = e.code
            except Exception as e:  # a traceback the CLI contract forbids
                error = f"{argv[0]} raised {type(e).__name__}: {e}"
                break
            if code != 0:
                error = f"{argv[0]} exited {code}: {stderr.getvalue().strip()}"
                break
        elapsed = time.perf_counter() - start
    return elapsed, error


def run_probed(cli, steps: list[list[str]], probe: Probe, budget_s: float):
    """`run_steps` with a probe slice before each command and after the
    last, each once other threads are idle. Returns (wall seconds, mean
    probe time around it) of each command run, and the failure, if any."""
    parts = []
    before = probe.sample(budget_s)
    for argv in steps:
        elapsed, error = run_steps(cli, [argv])
        settle()
        after = probe.sample(budget_s)
        around = before + after
        parts.append((elapsed, sum(around) / len(around)))
        before = after
        if error is not None:
            break
    return parts, error


def execute(cli, tally: Tally, steps, check, tracer: Tracer | None = None, op_id: int = -1) -> tuple[float, bool]:
    """Run one op (traced if a tracer is given), check it untimed, and
    count it in the tally. Returns its seconds and whether it passed."""
    if tracer is not None:
        tracer.op_id = op_id
        tracer.install()
    try:
        elapsed, error = run_steps(cli, steps)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return elapsed, judge(tally, error, check)


def judge(tally: Tally, error: str | None, check) -> bool:
    """Check a finished op untimed and count it; return whether it passed."""
    tally.attempted += 1
    if error is None:
        try:
            check()
        except Exception as e:
            error = f"check failed: {type(e).__name__}: {e}"
    if error is not None:
        tally.failures.append(error)
    return error is None


def measure(cli, workload, seconds: float, probe: Probe) -> Tally:
    """Closed loop, untraced: whole passes over the pool, ops back to back
    with a probe slice on each side, until `seconds` of wall time."""
    tally = Tally()
    pool = len(workload.pool)
    last: dict[int, float] = {}
    k = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or k % pool:
        i = k % pool
        steps = workload.steps(k)
        budget = max(PROBE_MIN_S, PROBE_SHARE * last.get(i, 0.0) / len(steps))
        parts, error = run_probed(cli, steps, probe, budget)
        elapsed = last[i] = sum(t for t, _ in parts)
        tally.latencies.append(elapsed)
        tally.timed_s += elapsed
        if judge(tally, error, lambda k=k: workload.check(k)):
            tally.samples.setdefault(i, []).append(parts)
            tally.rows[i] = workload.rows(k)
        k += 1
    if hasattr(workload, "final_steps"):
        tally.timed_s += execute(cli, tally, workload.final_steps(), workload.check_final)[0]
    return tally


def measure_traced(cli, workload, seconds: float, tracer: Tracer) -> tuple[Tally, int, float, float]:
    """Every op untraced and traced, alternating which goes first, until
    `seconds` of op time. Returns the tally, the traced op count, and the
    untraced and traced seconds of the same ops."""
    tally = Tally()
    plain = traced = 0.0
    k = 0

    def both(steps, check, op_id):
        nonlocal plain, traced
        for use_tracer in (False, True) if op_id % 2 == 0 else (True, False):
            elapsed, _ = execute(cli, tally, steps, check, tracer if use_tracer else None, op_id)
            if use_tracer:
                traced += elapsed
            else:
                plain += elapsed

    while plain + traced < seconds:
        both(workload.steps(k), lambda k=k: workload.check(k), k)
        k += 1
    if hasattr(workload, "final_steps"):
        both(workload.final_steps(), workload.check_final, k)
    tally.timed_s = plain + traced
    return tally, k, plain, traced


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_values(per_input: list[float], rows: int, setup: list[float]) -> dict:
    """The timed end-to-end metrics from per-input op seconds and set-up
    seconds."""
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": _ratio(len(per_input), sum(per_input)),
        "op_p50_ms": 1e3 * statistics.median(per_input or [0.0]),
        "op_p90_ms": 1e3 * percentile(per_input or [0.0], 90),
        "rows_per_s": _ratio(rows, sum(per_input)),
    }


def end_to_end_values(
    tally: Tally, setup_times: list[tuple[float, float]], reference: float = REFERENCE_PROBE_S
) -> tuple[dict, dict]:
    """The end-to-end metrics at reference speed: every command's time
    divided by its contention factor (mean probe time around it over
    `reference`), each input at the median of its ops. Also returns the same
    figures from raw wall times (each input at its median) and the factors."""
    inputs = sorted(tally.samples)
    rows = sum(tally.rows[i] for i in inputs)
    factors = [around / reference for i in inputs for op in tally.samples[i] for _, around in op]
    adjusted = timing_values(
        [statistics.median(sum(t * reference / around for t, around in op) for op in tally.samples[i]) for i in inputs],
        rows,
        [t * reference / around for t, around in setup_times],
    )
    adjusted["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = timing_values(
        [statistics.median(sum(t for t, _ in op) for op in tally.samples[i]) for i in inputs],
        rows,
        [t for t, _ in setup_times],
    )
    raw["contention_p50"] = statistics.median(factors or [1.0])
    raw["contention_max"] = max(factors or [1.0])
    return adjusted, raw


def layer_value(name: str, tracer: Tracer, ops: int, extra: dict) -> float:
    """A per-layer metric: `<module>.<function>.<stat>`, per op, from the
    tracer's totals, or a value computed by the run (`extra`)."""
    if name in extra:
        return extra[name]
    layer, _, stat = name.rpartition(".")
    s = tracer.stats[layer]
    if stat in ("calls", "built"):
        return s.calls / ops
    if stat == "self_s":
        return s.self_s / ops
    if stat == "errors":
        return (s.errors + s.items["exit_nonzero"]) / ops
    if stat in ("rows", "samples", "pairs_tried", "motions_kept"):
        return s.items[stat] / ops
    raise KeyError(f"no rule for per-layer metric {name!r}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_extras(tracer: Tracer, workload, ops: int, plain: float, traced: float) -> dict:
    motions = tracer.stats["handeye.build_relative_motions"].items
    gate = tracer.stats["metrics.perpendicular_errors"].items
    worst = getattr(workload, "worst", {})  # only calibrate solves anything
    return {
        "handeye.build_relative_motions.kept_ratio": _ratio(motions["motions_kept"], motions["pairs_tried"]),
        "metrics.gated_ratio": _ratio(gate["gated"], gate["gate_input"]),
        "handeye.calibrate_hand_eye.rot_err_deg": worst.get("rot_err_deg", 0.0),
        "handeye.calibrate_hand_eye.trans_err_mm": worst.get("trans_err_mm", 0.0),
        "pointcal.calibrate_pivot.tip_err_mm": worst.get("tip_err_mm", 0.0),
        "trace.overhead_s": (traced - plain) / ops,
        "trace.overhead_ratio": _ratio(traced - plain, plain),
        "trace.spans": (len(tracer.spans) + tracer.spans_dropped) / ops,
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, read, not changed."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None):
    """Set up, measure and check one workload. Returns the run's record:
    machine, run, result, op latencies and, when traced, the per-function
    table and the spans file; the record is also written under OUT."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    probe = Probe()
    raw = {}
    try:
        cli, workload, setup_times = set_up(name, seed, work, sizes or {}, probe)
        if trace:
            tracer = Tracer()
            tally, ops, plain, traced = measure_traced(cli, workload, seconds, tracer)
            extras = layer_extras(tracer, workload, ops, plain, traced)
            specs = bench["per_layer"]
            values = {m["name"]: layer_value(m["name"], tracer, ops, extras) for m in specs}
        else:
            tally = measure(cli, workload, seconds, probe)
            specs = bench["end_to_end"]
            values, raw = end_to_end_values(tally, setup_times)
            raw["probe_fastest_s"] = min(probe.chunks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    detail = {
        "machine": machine_info(),
        "run": {
            "workload": name,
            "why": next(w["why"] for w in bench["workloads"] if w["name"] == name),
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "load": "closed loop, 1 client, in-process cutcal.cli.main",
            "setup_s_samples": [t for t, _ in setup_times],
            "ops": len(tally.latencies) if not trace else ops,
            "pool": len(workload.pool),
            "timed_s": tally.timed_s,
            "failures": tally.failures[:MAX_FAILURES_SHOWN],
            "raw_wall": raw,
        },
        "result": result,
        "op_latencies_s": tally.latencies,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        detail["layers"] = tracer.table()
        detail["spans_dropped"] = tracer.spans_dropped
        detail["spans_file"] = str(OUT / f"{stem}-spans.jsonl")
        tracer.write_spans(Path(detail["spans_file"]))
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    return detail


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload;
    the last line merges the results under `<workload>.<metric>`."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"machine": detail["machine"], "run": detail["run"]}))
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
