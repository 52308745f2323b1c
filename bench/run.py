"""Benchmark of the aggchoice CLI: one workload, one seed, one run.

    python3 bench/run.py --workload polytope-7 --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` of the same checkout; nothing is installed.  The load is a closed
loop: one client in this process issues each ``aggchoice.cli.main([...])``
call after the previous one returns.  A batch is the workload's fixed
command list (see ``workloads.py``); batches repeat until ``--seconds``
would be exceeded, with at least two.  Every command's output is checked.

``--trace 0`` prints the end-to-end metrics (medians over batches).
``--trace 1`` alternates untraced and traced batches and prints the
per-layer metrics: self time and call counts per traced function, the
counters taken at the same boundaries, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report,
with the environment block and every per-command sample, is written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: One client, one thread: BLAS threads would compete with the client for
#: the few cores of a small machine and add run-to-run noise.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_BATCHES = 2
SETUP_REPS = 9

#: Run in a fresh interpreter: times ``import aggchoice.cli`` from inside,
#: so interpreter start-up and process teardown are left out.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import aggchoice.cli; "
    "print(repr(time.perf_counter() - start))"
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.all_orders.calls": "count",
    "model.all_orders.self_s": "s",
    "model.orders_enumerated": "count",
    "model.forward_evaluate.calls": "count",
    "model.forward_evaluate.self_s": "s",
    "axioms.check_aru_rational.self_s": "s",
    "axioms.event_matrix_bytes_computed": "bytes",
    "axioms.check_partial_ru.self_s": "s",
    "axioms.check_limited_monotonicity.self_s": "s",
    "axioms.bm_polynomial.calls": "count",
    "axioms.bm_polynomial.self_s": "s",
    "linprog.solve_feasibility.calls": "count",
    "linprog.solve_feasibility.self_s": "s",
    "linprog.rows": "count",
    "linprog.cols": "count",
    "linprog.infeasible_calls": "count",
    "linprog.max_abs_residual": "1",
    "geometry.aru_distance.self_s": "s",
    "geometry.approx_caratheodory.self_s": "s",
    "geometry.ru_vertex_lmo.calls": "count",
    "geometry.ru_vertex_lmo.self_s": "s",
    "geometry.lmo_orders_scanned": "count",
    "geometry.fw_iterations": "count",
    "geometry.fw_active_vertices": "count",
    "rationalize.rationalize.self_s": "s",
    "rationalize.build_lambda_for_menu.calls": "count",
    "rationalize.build_lambda_for_menu.self_s": "s",
    "rationalize.composition_tuples": "count",
    "rationalize.max_residual": "1",
    "serialize.load.self_s": "s",
    "serialize.to_json.self_s": "s",
    "serialize.bytes_read": "bytes",
    "serialize.bytes_written": "bytes",
    "simulation.fit_aggregated_logit.calls": "count",
    "simulation.fit_aggregated_logit.self_s": "s",
    "simulation.reduce_dataset.self_s": "s",
    "simulation.sweep.self_s": "s",
    "simulation.minmax_bias.self_s": "s",
    "render.heatmap_svg.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

#: Per-layer metrics that are run-wide maxima; all others are per-batch means.
MAXIMA = ("linprog.max_abs_residual", "rationalize.max_residual")


@dataclass
class Batch:
    wall: float = 0.0
    kinds: dict = field(default_factory=dict)  # kind -> summed seconds
    samples: list = field(default_factory=list)  # (kind, seconds)
    points: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)


class Runner:
    """Runs batches of CLI commands and checks each output."""

    def __init__(self, groups, cli):
        self.groups = groups
        self.cli = cli
        self.command_id = 0

    def _call(self, argv, tracer):
        # A command that fails to write must not be checked against the
        # file an earlier batch left behind.
        for flag, value in zip(argv, argv[1:]):
            if flag.startswith("--output"):
                Path(value).unlink(missing_ok=True)
        err = io.StringIO()
        code, error = None, ""
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(list(argv))
                else:
                    with tracer.command(self.command_id):
                        code = self.cli.main(list(argv))
            except Exception:
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.finish_command(self.command_id, seconds)
        return code, seconds, (error or err.getvalue()).strip()

    def batch(self, tracer=None) -> Batch:
        from workloads import Outcome

        gc.collect()
        out = Batch()
        for group in self.groups:
            group.context.clear()
            for step in group.steps:
                self.command_id += 1
                code, seconds, error = self._call(step.argv, tracer)
                out.attempted += 1
                out.wall += seconds
                out.kinds[step.kind] = out.kinds.get(step.kind, 0.0) + seconds
                out.samples.append((step.kind, seconds))
                out.points += step.points
                try:
                    problems = step.check(Outcome(code, seconds, error), group.context)
                except Exception:
                    problems = [traceback.format_exc(limit=2)]
                if problems:
                    out.failures.append({"group": group.name, "command": list(step.argv), "problems": problems})
        return out


def measure(run_one, seconds: float, min_rounds: int = MIN_BATCHES) -> list:
    """Repeat `run_one` until another round would pass `seconds`."""
    rounds, costs = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(run_one())
        costs.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(costs) > seconds:
            return rounds


def import_seconds() -> float:
    """``import aggchoice.cli`` (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=60,
    )
    return float(done.stdout)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "aggchoice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _median(values):
    return statistics.median(values) if values else None


def command_summary(batches: list[Batch]) -> dict:
    """Per command kind: per-batch sums and every per-command sample."""
    kinds = sorted({k for b in batches for k in b.kinds})
    out = {}
    for kind in kinds:
        samples = [s for b in batches for k, s in b.samples if k == kind]
        out[f"{kind}_s"] = {
            "unit": "s",
            "median_per_batch": _median([b.kinds[kind] for b in batches]),
            "median_per_command": _median(samples),
            "count": len(samples),
            "samples": samples,
        }
    sweeps = [b.points / b.kinds["sweep"] for b in batches if b.points]
    if sweeps:
        out["sweep_points_per_s"] = {"unit": "1/s", "median_per_batch": _median(sweeps), "count": len(sweeps)}
    return out


def layer_metrics(tracer, traced: list[Batch], untraced: list[Batch]) -> dict:
    totals = tracer.layer_totals()
    n = len(traced)
    values = {}
    for name in PER_LAYER:
        if name in MAXIMA:
            values[name] = tracer.maxima.get(name, 0.0)
        elif name == "trace.overhead_s":
            values[name] = statistics.median(b.wall for b in traced) - statistics.median(
                b.wall for b in untraced
            )
        else:
            values[name] = (totals.get(name, 0.0) + tracer.counters.get(name, 0.0)) / n
    return values


def set_up(args, workdir: Path):
    """Time the import and instance generation; keep the last round."""
    import workloads

    import_seconds()  # warm-up: brings numpy's files into the page cache
    imports = [import_seconds() for _ in range(SETUP_REPS)]
    generation = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        generated = workloads.generate(args.workload, args.seed)
        paths = workloads.write_manifests([inst for inst, _ in generated], str(workdir))
        generation.append(time.perf_counter() - start)
    groups = workloads.plan(args.workload, generated, paths, str(workdir))
    return groups, {"import_s": imports, "generation_s": generation}


def run_traced(runner: Runner, seconds: float):
    """Untraced and traced batches in alternation; per-layer metrics."""
    from tracing import Tracer

    tracer = Tracer()

    def pair():
        plain = runner.batch()
        tracer.install()
        try:
            traced = runner.batch(tracer)
        finally:
            tracer.uninstall()
        return plain, traced

    pairs = measure(pair, seconds, min_rounds=1)
    untraced = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    problems = tracer.problems()
    trace = {
        "spans": len(tracer.spans),
        "problem_count": len(problems),
        "problems": problems[:20],
        "traced_wall_s": [b.wall for b in traced],
        "untraced_wall_s": [b.wall for b in untraced],
    }
    return untraced, traced, layer_metrics(tracer, traced, untraced), trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aggchoice" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'aggchoice'}", file=sys.stderr)
        return 2
    for name in THREAD_ENV:
        os.environ[name] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]

    import aggchoice
    from aggchoice import cli

    if Path(aggchoice.__file__).resolve().parent != SRC / "aggchoice":
        print(f"error: imported aggchoice from {aggchoice.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        groups, setup = set_up(args, workdir)
        runner = Runner(groups, cli)
        if args.trace:
            untraced, traced, metrics, trace = run_traced(runner, args.seconds)
            batches, timed, units = untraced + traced, untraced, PER_LAYER
        else:
            batches = timed = measure(runner.batch, args.seconds)
            trace, units = None, END_TO_END
            metrics = {
                "wall_s": statistics.median(b.wall for b in batches),
                "setup_s": statistics.median(setup["import_s"]) + statistics.median(setup["generation_s"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    attempted = sum(b.attempted for b in batches)
    failures = [f for b in batches for f in b.failures]
    trace_problems = trace["problems"] if trace else []
    correct = not failures and not (trace and trace["problem_count"])
    report = {
        "environment": environment(args),
        "batches": len(batches),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "setup": setup,
        "commands": command_summary(timed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "trace": trace,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    target = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    target.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"# environment {json.dumps(report['environment'], sort_keys=True)}")
    for name, entry in report["commands"].items():
        print(f"# {name}: median per batch {entry['median_per_batch']:.6g} {entry['unit']} "
              f"({entry['count']} samples)")
    print(f"# error_rate: {report['error_rate']:.6g} ({len(failures)} of {attempted})")
    for failure in failures[:5]:
        print(f"# FAILED {failure['group']} {' '.join(failure['command'][:3])}: {failure['problems'][0][:300]}")
    for problem in trace_problems[:5]:
        print(f"# TRACE {problem}")
    for name, entry in report["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
