"""ulre benchmark: one workload, timed untraced, with its outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ulre from ./src and writes
only under ./.perfbench_work (removed on exit) and ./.perfbench_out (one
JSON record per run). The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics. `--trace 1` repeats the
untraced passes, then makes two traced passes (spans.py's wrappers) and
reports the per-layer metrics. Lines before the result, starting with '#',
carry every metric with its median, tail percentile and sample count, the
read-back quality numbers, the untimed warm-up pass's wall time and the
environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
RECORDS = Path(".perfbench_out")
BLAS_THREADS = 1  # pinned before numpy loads; at most nproc
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5  # setup_s is a median over this many set-ups
WARMUP_PASSES = 1  # the first pass runs on a cold heap: checked and hashed, not timed
MIN_PASSES = 2  # timed passes
TRACED_PASSES = 2  # work counts are compared across traced passes
MODULES = ("cli", "data", "model", "evidential", "numkernel", "metrics")
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rows_per_s", "rows/s"),
]


class BenchmarkError(RuntimeError):
    """A fault of the benchmark itself, not of the program under test."""


class Pass(NamedTuple):
    wall: float  # seconds of the whole pass
    secs: dict  # call label -> seconds
    values: dict  # quantities read back from the outputs
    spans: list | None  # the traced pass's spans


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it, as
    (percent, value); None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return int(100 * k // n), sorted(values)[k - 1]


def describe(values, unit: str) -> str:
    med = statistics.median(values)
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "no tail (<11 samples)"
    return f"median {med:.6g} {unit}, {tail_text}, n={len(values)}"


class Bench:
    def __init__(self, ulre, workload, seed: int):
        self.ulre = ulre
        self.wl = workload
        self.seed = seed
        self.inputs = WORK / workload.name / "inputs"
        self.out = WORK / workload.name / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict] = {}  # call label -> output hashes

    def setup_once(self) -> float:
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        t = time.perf_counter()
        self.wl.setup(self.ulre, self.seed, self.inputs)
        return time.perf_counter() - t

    def run_pass(self, tracer=None) -> Pass:
        """One pass of the workload's CLI calls, then its output checks."""
        from spans import installed_wrappers

        cli = self.ulre.cli
        shutil.rmtree(self.out, ignore_errors=True)
        calls = self.wl.calls(self.ulre, self.seed, self.inputs, self.out)
        if tracer is None and installed_wrappers(self.modules()):
            raise BenchmarkError("tracing wrappers present in an untraced pass")
        secs, results = {}, []
        with tracer.installed() if tracer is not None else nullcontext():
            start = time.perf_counter()
            for call in calls:
                t = time.perf_counter()
                try:
                    resolved = cli.resolve_config(call.command, call.raw)
                    outputs = cli.run_command(call.command, resolved, call.out)
                    error = None
                except Exception as exc:  # a failed call is counted, not fatal
                    outputs, error = [], f"{type(exc).__name__}: {exc}"
                secs[call.label] = time.perf_counter() - t
                results.append((call, outputs, error))
            wall = time.perf_counter() - start
        for call, outputs, error in results:
            self.attempted += 1
            problems = [error] if error else self.check(call, outputs)
            if problems:
                self.failed += 1
                self.problems.append(f"{call.label}: {'; '.join(problems)}")
        try:
            values = self.wl.values(self.ulre, self.seed, self.out, secs)
        except (OSError, KeyError, ValueError) as exc:
            values = {}
            self.problems.append(f"read-back: {type(exc).__name__}: {exc}")
        return Pass(wall, secs, values, tracer.spans if tracer is not None else None)

    def check(self, call, outputs) -> list[str]:
        try:
            problems = call.check(call.out) if call.check else []
        except Exception as exc:  # an unreadable output fails its check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        hashes = {name: _sha256(call.out / name) for name in outputs}
        first = self.reference.setdefault(call.label, hashes)
        if hashes != first:
            changed = sorted(k for k in set(first) | set(hashes) if first.get(k) != hashes.get(k))
            problems.append(f"output hashes differ from the first pass: {changed}")
        return problems

    def modules(self):
        return [getattr(self.ulre, m) for m in MODULES]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ulre").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def import_seconds() -> float:
    """Seconds from starting a fresh interpreter until it has imported ulre."""
    code = "import sys; sys.path.insert(0, 'src'); " + "; ".join(f"import ulre.{m}" for m in MODULES)
    t = time.perf_counter()
    # no timeout: with one, subprocess polls the child with sleeps of up to
    # 50 ms and sees its exit late; without, it waits in a blocking waitpid
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return time.perf_counter() - t


def import_ulre():
    src = ROOT / "src"
    if not (src / "ulre" / "__init__.py").is_file():
        raise BenchmarkError(f"no ulre sources under {src}")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import importlib

    ulre = importlib.import_module("ulre")
    for name in MODULES:
        importlib.import_module(f"ulre.{name}")
    if Path(ulre.__file__).resolve().parent != (src / "ulre").resolve():
        raise BenchmarkError(f"imported ulre from {ulre.__file__}, not from {src}")
    return ulre


def run(args) -> dict:
    ulre = import_ulre()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    bench = Bench(ulre, WORKLOADS[args.workload], args.seed)
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    setups = [bench.setup_once() for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(imports) + statistics.median(setups)

    # the cold pass every one-shot CLI process pays; recorded, not in wall_s
    warmups = [bench.run_pass().wall for _ in range(WARMUP_PASSES)]
    # closed loop: passes start until --seconds are spent; the last one finishes
    passes = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - begin < args.seconds:
        passes.append(bench.run_pass())
    walls = [p.wall for p in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def rate(num, den):
        return [p.values[num] / p.values[den] for p in passes if num in p.values and p.values[den] > 0]

    main_rate = rate(*bench.wl.main_rate)
    samples = {"wall_s": walls, "rows_per_s": main_rate}
    # quality and per-stage numbers read back from the outputs, printed only
    extra = {"eval_px_per_s": ("px/s", rate("eval_px", "eval_s"))}
    for key in ("ap", "fpr95"):
        extra[key] = ("1", [p.values[key] for p in passes if key in p.values])
    extra = {k: v for k, v in extra.items() if v[1]}
    stage = {}  # per CLI command, every call of every pass is a sample
    for p in passes:
        for label, s in p.secs.items():
            stage.setdefault(label.split("[")[0], []).append(s)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "warmup_walls_s": warmups,
        "import_runs_s": imports,
        "input_runs_s": setups,
        "samples": samples,
        "stage_s": stage,
        "read_back": {k: v[1] for k, v in extra.items()},
        "output_sha256": bench.reference,
    }
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "rows_per_s": statistics.median(main_rate) if main_rate else 0.0,  # 0: every read-back failed
    }
    lines = [f"{k} = {metrics[k]:.6g} {u}   ({describe(samples[k], u)})" if samples.get(k)
             else f"{k} = {metrics[k]:.6g} {u}" for k, u in END_TO_END]
    lines += [f"{k} = {statistics.median(v):.6g} {u}   ({describe(v, u)})" for k, (u, v) in extra.items()]
    lines += [f"stage {k}: {describe(v, 's')}" for k, v in stage.items()]
    lines.append("warm-up pass (cold heap, untimed): " + ", ".join(f"{w:.6g} s" for w in warmups))

    if args.trace:
        traced = []
        for _ in range(TRACED_PASSES):
            tracer = spans.Tracer(bench.modules())
            traced.append(bench.run_pass(tracer))
        if spans.installed_wrappers(bench.modules()):
            raise BenchmarkError("tracing wrappers left installed")
        layers = [spans.layer_metrics(p.spans) for p in traced]
        for key in spans.EXACT_COUNTS:
            if len({m[key] for m in layers}) != 1:
                raise BenchmarkError(f"work count {key} differs between traced passes: "
                                     f"{[m[key] for m in layers]}")
        per_layer = {k: statistics.median([m[k] for m in layers]) for k in layers[0]}
        per_layer["trace.overhead_s"] = statistics.median([p.wall for p in traced]) - metrics["wall_s"]
        record["per_layer_passes"] = layers
        record["traced_walls"] = [p.wall for p in traced]
        result_metrics = {name: (per_layer[name], unit) for name, unit, _ in spans.PER_LAYER}
        lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in result_metrics.items()]
    else:
        result_metrics = {name: (metrics[name], unit) for name, unit in END_TO_END}

    wl = bench.wl
    lines.insert(0, f"workload {wl.name}: {wl.why}; stresses {wl.stresses}; bypasses {wl.bypasses}")
    attempted, failed = bench.attempted, bench.failed
    lines.append(f"failed_frac = {failed / attempted:.6g} 1   ({failed} of {attempted} CLI calls)")
    lines += [f"FAILED {p}" for p in bench.problems]
    record["environment"] = environment()
    record["problems"] = bench.problems
    lines.append("environment " + json.dumps(record["environment"], sort_keys=True))
    RECORDS.mkdir(exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (RECORDS / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in lines:
        print("# " + line)
    return {
        "correct": failed == 0 and not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    os.chdir(ROOT)
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
