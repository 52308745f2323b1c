"""Tests of the benchmark itself: generator, tracer and output checks.

Run with ``python3 -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import instances as gen
import run
import tracing
import workloads
from aggchoice import cli
from aggchoice.axioms import AxiomReport, Violation
from aggchoice.model import PreferenceDistribution

BENCH = run.BENCH


def _manifests(workload, seed, directory):
    directory.mkdir()
    generated = workloads.generate(workload, seed)
    paths = workloads.write_manifests([inst for inst, _ in generated], str(directory))
    return {name: open(path, "rb").read() for name, path in paths.items()}


@pytest.mark.parametrize("workload", ["lp-rational", "polytope-7"])
def test_same_seed_gives_byte_identical_manifests(workload, tmp_path):
    first = _manifests(workload, 7, tmp_path / "a")
    again = _manifests(workload, 7, tmp_path / "b")
    other = _manifests(workload, 8, tmp_path / "c")
    assert first and first == again
    assert first.keys() == other.keys()
    seeded = [name for name in first if not name.startswith("nesting")]
    assert all(first[name] != other[name] for name in seeded)


def test_sweep_workload_has_no_seeded_input():
    assert workloads.generate("sweep", 1) == workloads.generate("sweep", 2) == []


def test_forced_instance_violates_regularity():
    space = gen.make_space(3, 2)
    inst = gen.vertex_mixture("p", space, 5, 0, 6, force_non_aru=True)
    low, high = space.non_atomic[0], space.atomic[0]
    grand = frozenset(space.members)
    assert inst.rho.prob(grand, low) > inst.rho.prob(frozenset({low, high}), low)
    assert inst.aru_rational is False


def test_partial_domain_is_closed_and_partial():
    space = gen.make_space(4, 2)
    domain = gen.closed_partial_domain(space, 3, 0)
    menus = set(domain.menus)
    atomic = [m for m in menus if m <= space.atomic_set]
    assert len(atomic) < 2 ** len(space.atomic) - 1
    for menu in menus:
        atoms = menu & space.atomic_set
        assert not atoms or atoms in menus


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def _nested_command(tracer, command_id=1):
    start = time.perf_counter()
    with tracer.command(command_id):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(10000))
            with tracer.span("b"):
                sum(range(10000))
        with tracer.span("c"):
            sum(range(10000))
    tracer.finish_command(command_id, time.perf_counter() - start)


def test_self_times_sum_to_root_span():
    tracer = tracing.Tracer()
    _nested_command(tracer)
    root = tracer.spans[0]
    selfs = tracer.self_times()
    assert root.name == tracing.ROOT and root.parent is None
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]
    assert sum(selfs) == pytest.approx(root.end - root.start, abs=1e-12)
    assert all(own >= 0 for own in selfs)
    totals = tracer.layer_totals()
    assert totals["b.calls"] == 2 and totals["a.calls"] == 1
    assert tracer.problems() == []


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda t: setattr(t.spans[2], "end", t.spans[1].end + 1.0), "not inside its parent"),
        (lambda t: setattr(t.spans[3], "end", float("nan")), "runs from"),
        (lambda t: setattr(t.spans[4], "command", 2), "parent in command 1"),
        (lambda t: t.latencies.update({1: t.latencies[1] + 1.0}), "against latency"),
        (lambda t: t.latencies.update({1: 0.0}), "against latency"),
        (lambda t: t.latencies.pop(1), "no external latency"),
        (lambda t: t.spans.append(replace(t.spans[1], parent=None)), "has no parent"),
        (lambda t: t.latencies.update({9: 1.0}), "has no root span"),
    ],
)
def test_damaged_spans_are_reported(damage, message):
    tracer = tracing.Tracer()
    _nested_command(tracer)
    damage(tracer)
    problems = tracer.problems()
    assert problems and any(message in p for p in problems), problems


def _small_aru(tmp_path, force_non_aru=False):
    space = gen.make_space(3, 1)
    if force_non_aru:
        inst = gen.vertex_mixture("small", space, 1, 0, 4, force_non_aru=True)
    else:
        inst = gen.aru_order_mixture("small", space, 1, 0)
    paths = workloads.write_manifests([inst], str(tmp_path))
    return inst, paths


def test_traced_command_records_layers_and_restores_functions(tmp_path):
    inst, paths = _small_aru(tmp_path)
    original = cli.check_aru_rational
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.command(1):
            code = cli.main(["check", "--axiom", "aru", "--input", paths["small"],
                             "--output", str(tmp_path / "out.json")])
        tracer.finish_command(1, time.perf_counter() - start)
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.check_aru_rational is original
    names = [s.name for s in tracer.spans]
    for name in ("cli.main", "serialize.load", "axioms.check_aru_rational",
                 "model.all_orders", "linprog.solve_feasibility"):
        assert name in names
    lp = tracer.spans[names.index("linprog.solve_feasibility")]
    assert tracer.spans[lp.parent].name == "axioms.check_aru_rational"
    assert tracer.counters["model.orders_enumerated"] == 24
    assert tracer.counters["axioms.event_matrix_bytes_computed"] > 0
    assert 0.0 <= tracer.maxima["linprog.max_abs_residual"] < 1e-9
    assert tracer.problems() == []


# ---------------------------------------------------------------------------
# Output checks count failures
# ---------------------------------------------------------------------------


def _batch(tmp_path, inst, paths, recipe):
    groups = workloads.plan("custom", [(inst, recipe)], paths, str(tmp_path))
    return run.Runner(groups, cli).batch()


def test_honest_outputs_pass(tmp_path):
    inst, paths = _small_aru(tmp_path)
    batch = _batch(tmp_path, inst, paths, workloads.POLYTOPE[:2])
    assert batch.attempted == 2 and batch.failures == []


def test_corrupted_certificate_is_counted(tmp_path, monkeypatch):
    inst, paths = _small_aru(tmp_path)
    honest = cli.check_aru_rational

    def corrupted(rho, space):
        report = honest(rho, space)
        orders = list(report.certificate.weights)
        weights = list(report.certificate.weights.values())
        shifted = dict(zip(orders, weights[1:] + weights[:1]))
        return replace(report, certificate=PreferenceDistribution(shifted))

    monkeypatch.setattr(cli, "check_aru_rational", corrupted)
    batch = _batch(tmp_path, inst, paths, workloads.ARU_CHECK)
    assert batch.attempted == 1 and len(batch.failures) == 1
    assert "certificate misses the data" in batch.failures[0]["problems"][0]


def test_flipped_verdict_is_counted(tmp_path, monkeypatch):
    inst, paths = _small_aru(tmp_path)
    flipped = AxiomReport(False, (Violation("aru-lp-infeasible", (), -1.0, 0.0),), method="lp")
    monkeypatch.setattr(cli, "check_aru_rational", lambda rho, space: flipped)
    batch = _batch(tmp_path, inst, paths, workloads.POLYTOPE[:2])
    assert batch.attempted == 2
    problems = [p for f in batch.failures for p in f["problems"]]
    assert any("expected True" in p for p in problems)
    assert any("disagrees with ARU verdict False" in p for p in problems)


def test_flipped_verdict_caught_by_distance_alone(tmp_path, monkeypatch):
    inst, paths = _small_aru(tmp_path, force_non_aru=True)
    inst = replace(inst, aru_rational=None)  # only the distance route can tell
    fake = AxiomReport(True, method="aru-stub")
    monkeypatch.setattr(cli, "check_aru_rational", lambda rho, space: fake)
    batch = _batch(tmp_path, inst, paths, workloads.POLYTOPE[:2])
    assert len(batch.failures) == 1
    assert "disagrees with ARU verdict True" in batch.failures[0]["problems"][0]


def test_crashing_command_is_counted(tmp_path, monkeypatch):
    inst, paths = _small_aru(tmp_path)

    def boom(rho, space):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check_aru_rational", boom)
    batch = _batch(tmp_path, inst, paths, workloads.ARU_CHECK)
    assert len(batch.failures) == 1 and "boom" in batch.failures[0]["problems"][0]


# ---------------------------------------------------------------------------
# The command line
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace, metrics", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_run_prints_result_line(trace, metrics, capsys, monkeypatch):
    # The real lp-rational batch takes seconds; one small instance per
    # group kind keeps the test short and runs every step of main().
    def small(workload, seed):
        space = gen.make_space(3, 1)
        partial = gen.closed_partial_domain(gen.make_space(3, 2), seed, 1)
        return [
            (gen.aru_order_mixture("aru4", space, seed, 0), workloads.ARU_CHECK),
            (gen.vertex_mixture("ru4-partial", gen.make_space(3, 2), seed, 2, 4, domain=partial),
             workloads.CONSTRUCT),
            (gen.nesting_counterexample("nesting4", 3), workloads.ROUND_TRIP),
        ]

    monkeypatch.setattr(workloads, "generate", small)
    argv = ["--workload", "lp-rational", "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(metrics)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_missing_output_is_not_read_from_an_earlier_batch(tmp_path, monkeypatch):
    inst, paths = _small_aru(tmp_path)
    groups = workloads.plan("custom", [(inst, workloads.ARU_CHECK)], paths, str(tmp_path))
    runner = run.Runner(groups, cli)
    assert runner.batch().failures == []
    monkeypatch.setattr(cli, "_emit", lambda payload, output: None)
    batch = runner.batch()
    assert len(batch.failures) == 1
    assert "No such file" in batch.failures[0]["problems"][0]
