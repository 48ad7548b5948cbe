"""Layered benchmark of heraldsim: end-to-end op latencies and per-layer spans.

    python3 heraldbench/run.py --workload herald_protocol|detector_cascade|all
                               [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; heraldsim is imported from its
`src/` directory.  One client sends ops back to back (a closed loop) with
the libraries' default thread settings.  A pass is one run of the
workload's op list in a seeded order; passes repeat until `--seconds`
have elapsed (at least MIN_PASSES), after an untimed warm-up that runs
each op kind once.  Every op's output is checked after its timing
stopped; an op that raises, exits non-zero or fails its check counts as
failed and the run goes on.

`--trace 0` reports the end-to-end metrics: set-up time (the median of
SETUP_REPEATS fresh interpreters, run before the warm-up and inside the
`--seconds` window), median pass time and peak memory on the
last JSON line, and the median latency of each op kind the workload
runs in the printed table.  `--trace 1` alternates untraced and traced
passes (at least MIN_PASSES of each) and reports the per-layer metrics
(see tracing.py); op kinds outside the workload's mix then run once,
traced, after the passes (the companion round), so that every workload
has a measured value for every per-layer metric.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the full record, with provenance, goes to heraldbench/out/.
NOTES.md explains the workloads and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("herald_protocol", "detector_cascade")

MIN_PASSES = 3
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMBA_NUM_THREADS", "HERALDSIM_BACKEND",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- provenance ----------------------------------------------------------------

def provenance() -> dict:
    import numpy
    import scipy

    try:
        from heraldsim._accel import BACKEND as backend
    except ImportError:
        backend = "absent"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if res.returncode == 0:
            commit = res.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "heraldsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "heraldsim_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
        "machine": platform.machine(),
    }


# -- running ops ---------------------------------------------------------------

class Runner:
    """Runs ops in a scratch directory and keeps one record per op."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.records = []
        self._n = 0

    def _opdir(self) -> Path:
        self._n += 1
        path = self.workdir / f"op{self._n}"
        path.mkdir()
        return path

    def run_pass(self, ops, phase: str, index: int) -> float:
        """Run ops back to back, then check them; returns the pass wall time."""
        done = []
        t_pass = time.perf_counter()
        for op in ops:
            opdir = self._opdir()
            done.append((op, opdir, *self._call(op, opdir)))
        wall = time.perf_counter() - t_pass
        for op, opdir, latency, result, error in done:
            self._finish(op, opdir, latency, result, error, phase, index)
        return wall

    @staticmethod
    def _call(op, opdir: Path):
        t0 = time.perf_counter()
        try:
            result, error = op.run(opdir), None
        except Exception as exc:  # noqa: BLE001  (a failed op is counted, the run goes on)
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        except SystemExit as exc:
            result, error = None, f"exited with {exc.code!r}"
        return time.perf_counter() - t0, result, error

    def _finish(self, op, opdir, latency, result, error, phase, index):
        import workloads

        if error is None:
            try:
                op.check(result, opdir)
            except workloads.CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:  # noqa: BLE001
                error = f"check raised {type(exc).__name__}: {exc}"
        shutil.rmtree(opdir, ignore_errors=True)
        self.records.append({
            "phase": phase, "pass": index, "kind": op.kind, "label": op.label,
            "latency_s": latency, "ok": error is None, "error": error,
        })

    def run_setup(self, op) -> None:
        """Import plus the first op, in a fresh interpreter; timed from outside."""
        opdir = self._opdir()
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from heraldsim import cli\n"
            f"sys.exit(cli.main({op.argv_in(opdir)!r}))\n"
        )
        t0 = time.perf_counter()
        try:
            res = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT),
                                 capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
            latency = time.perf_counter() - t0
            result, error = res.returncode, None
            if res.returncode != 0 and res.stderr:
                error = f"exit code {res.returncode}: {res.stderr.strip().splitlines()[-1]}"
        except subprocess.TimeoutExpired:
            latency, result, error = time.perf_counter() - t0, None, "setup timed out"
        self._finish(op, opdir, latency, result, error, "setup", 0)


# -- one workload ----------------------------------------------------------------

def run_workload(args) -> dict:
    import workloads
    from tracing import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    # the traced run alternates untraced and traced passes: MIN_PASSES of each
    min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
    setup_target = 0 if args.trace else SETUP_REPEATS
    passes = []         # (traced, wall, round or None)
    setup_walls = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        runner = Runner(Path(tmp))
        t_start = time.perf_counter()
        for _ in range(setup_target):
            runner.run_setup(workloads.setup_op(args.workload, args.seed))
            setup_walls.append(runner.records[-1]["latency_s"])
        # Each op kind once, untimed, after the set-up processes have
        # disturbed the caches: lazy imports, first calls and the BLAS thread
        # pool settle during it.  In a fresh process the engine's small-matrix
        # calls were measured to run up to 3x slower for the first second or so.
        runner.run_pass(workloads.warmup_ops(args.workload, args.seed), "warmup", 0)

        index = 0
        while index < min_passes or time.perf_counter() - t_start < args.seconds:
            ops = workloads.pass_ops(args.workload, args.seed, index)
            traced = bool(args.trace) and index % 2 == 1
            if traced:
                tracer.install()
            try:
                wall = runner.run_pass(ops, "pass", index)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append((traced, wall, tracer.take_round() if traced else None))
            index += 1
        measured_s = time.perf_counter() - t_start
        # read before the traced companion round, whose ops are not this workload's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        companion_round = None
        if args.trace:
            # built before the wrappers go in: building an op may call the
            # library (error_bars_op makes its state), which no op should count
            ops = workloads.companion_ops(args.workload, args.seed)
            tracer.install()
            try:
                runner.run_pass(ops, "companion", 0)
            finally:
                tracer.uninstall()
            companion_round = tracer.take_round()

    records = runner.records
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    if args.trace:
        metrics = layer_metrics(passes, companion_round, tracer)
    else:
        metrics = end_to_end_metrics(records, passes, setup_walls, peak_rss_mb)
    metrics["error_rate"] = {"value": failed / attempted, "unit": "1",
                             "samples": attempted, "source": "all ops"}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "measured_s": measured_s,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "absent": tracer.absent if tracer else [],
        "counter_errors": tracer.counter_errors if tracer else [],
        "failures": [r for r in records if not r["ok"]],
        "ops": records,
    }


def end_to_end_metrics(records, passes, setup_walls, peak_rss_mb) -> dict:
    import workloads

    walls = [wall for _, wall, _ in passes]
    metrics = {
        "setup_s": {"value": statistics.median(setup_walls), "unit": "s",
                    "samples": len(setup_walls), "source": "fresh process"},
        "wall_s": {"value": statistics.median(walls), "unit": "s",
                   "samples": len(walls), "source": "pass"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "samples": 1,
                        "source": "process"},
    }
    for kind in workloads.OP_KINDS:
        lat = [r["latency_s"] for r in records if r["kind"] == kind and r["phase"] == "pass"]
        if lat:
            metrics[kind + "_s"] = {"value": statistics.median(lat), "unit": "s",
                                    "samples": len(lat), "source": "pass"}
    return metrics


def _self_s(span):
    return lambda rnd: rnd["self_s"].get(span, 0.0)


def _calls(span):
    return lambda rnd: rnd["calls"].get(span, 0)


def _count(key):
    return lambda rnd: rnd["counts"].get(key, 0.0)


def _ratio(num, den):
    def ratio(rnd):
        base = rnd["counts"].get(den, 0.0)
        return rnd["counts"].get(num, 0.0) / base if base else 0.0
    return ratio


def _layer_metric_table() -> dict:
    """Per-layer metric -> (unit, span whose calls define it, extractor)."""
    from tracing import TRACED, span_name

    table = {}
    for module, attr in TRACED:
        span = span_name(module, attr)
        table[span + ".self_s"] = ("s", span, _self_s(span))
    for span in ("protocol.run_two_rounds", "tomography.reconstruct_pauli",
                 "lindblad.cascaded_simulate"):
        table[span + ".calls"] = ("count", span, _calls(span))
    table.update({
        "sampler.shots": ("count", "sampler.sample_shots", _count("sampler.shots")),
        "sampler.csv_bytes": ("bytes", "sampler.write_shots_csv",
                              _count("sampler.csv_bytes")),
        "sampler.post_selected_fraction": (
            "1", "sampler.aggregate",
            _ratio("sampler.post_selected", "sampler.aggregated_shots")),
        "lindblad.rk4_steps": ("count", "lindblad.cascaded_simulate",
                               _count("lindblad.rk4_steps")),
        "lindblad.useful_step_fraction": (
            "1", "lindblad.cascaded_simulate",
            _ratio("lindblad.useful_steps", "lindblad.rk4_steps")),
        "lindblad.traces_csv_bytes": ("bytes", "lindblad.TimeTraces.write_csv",
                                      _count("lindblad.traces_csv_bytes")),
    })
    return table


def layer_metrics(passes, companion_round, tracer) -> dict:
    """Per-pass medians over the traced passes.

    A function the workload's passes never call takes its figure from the
    companion round instead, and a function missing from this version of
    heraldsim reads 0 with source "absent".
    """
    traced = [(wall, rnd) for is_traced, wall, rnd in passes if is_traced]
    rounds = [rnd for _, rnd in traced]
    metrics = {}
    for name, (unit, span, extract) in _layer_metric_table().items():
        if span in tracer.absent:
            value, samples, source = 0.0, 0, "absent"
        elif any(rnd["calls"].get(span) for rnd in rounds):
            value = statistics.median([extract(r) for r in rounds])
            samples, source = len(rounds), "pass"
        elif companion_round["calls"].get(span):
            value, samples, source = extract(companion_round), 1, "companion"
        else:
            value, samples, source = 0.0, 0, "not called"
        metrics[name] = {"value": value, "unit": unit, "samples": samples, "source": source}

    # pass 2k runs untraced and pass 2k+1 traced, with the same op kinds
    pairs = [(passes[i][1], passes[i + 1][1]) for i in range(0, len(passes) - 1, 2)]
    metrics["trace.overhead_s"] = {
        "value": statistics.median([t - u for u, t in pairs]), "unit": "s",
        "samples": len(pairs), "source": "traced - untraced, adjacent passes"}
    metrics["trace.attributed_fraction"] = {
        "value": statistics.median([sum(rnd["self_s"].values()) / wall for wall, rnd in traced]),
        "unit": "1", "samples": len(traced), "source": "pass"}
    return metrics


# -- reporting ---------------------------------------------------------------------

def report(result: dict, prov: dict, contract_names) -> dict:
    """Print the human-readable table; return the contract's last-line object."""
    print(f"heraldbench workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']}")
    for key, value in prov.items():
        print(f"  {key}: {value}")
    print(f"  passes: {result['passes']} in {result['measured_s']:.2f} s; ops attempted "
          f"{result['attempted']}, failed {result['failed']}")
    for name in result["absent"]:
        print(f"  absent: {name}")
    for err in result["counter_errors"][:5]:
        print(f"  counter error: {err}")
    for rec in result["failures"][:10]:
        print(f"  FAILED {rec['phase']} {rec['label']}: {rec['error']}")
    print(f"  {'metric':40s} {'value':>14s} {'unit':6s} {'samples':>7s}  source")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} {m['samples']:7d}  {m['source']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]} for n in contract_names},
    }


def contract_names(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True,
        )
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            return res.returncode
        last = json.loads(res.stdout.strip().splitlines()[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    required = (SRC / "heraldsim" / "__init__.py", ROOT / "BENCHMARK.json")
    if not all(path.is_file() for path in required):
        print(f"error: {ROOT} is not a heraldsim source checkout "
              "(needs src/heraldsim and BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import heraldsim

    if Path(heraldsim.__file__).resolve().parent != (SRC / "heraldsim").resolve():
        print(f"error: imported heraldsim from {heraldsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    prov = provenance()
    names = contract_names(args.trace)
    result = run_workload(args)
    result["provenance"] = prov
    last = report(result, prov, names)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"  results: {out.relative_to(ROOT)}")
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
