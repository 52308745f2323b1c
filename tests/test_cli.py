import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import aggchoice
from aggchoice import (
    AggregateSpace,
    ChoiceDomain,
    LinearOrder,
    MenuCollectionFamily,
    StochasticChoice,
    aru_evaluate,
    vertex_choice,
)
from aggchoice.cli import main
from aggchoice.serialize import Manifest, load, save
from aggchoice.tolerances import flow_tol, replay_tol
from conftest import random_preferences, random_vertex_mixture

X, Y, A0 = "x", "y", "a0"


@pytest.fixture
def space():
    return AggregateSpace((X, Y), (A0,))


@pytest.fixture
def domain(space):
    return ChoiceDomain.full(space)


@pytest.fixture
def vertex_path(tmp_path, space, domain):
    rho = vertex_choice(
        LinearOrder((X, Y, A0)),
        MenuCollectionFamily.single(A0, [frozenset({X, A0})]),
        domain,
    )
    path = tmp_path / "vertex.json"
    save(Manifest(space=space, choice=rho), str(path))
    return str(path)


@pytest.fixture
def lm_violation_path(tmp_path, space):
    rho = StochasticChoice(
        space,
        {
            frozenset({X, Y}): {X: 0.5, Y: 0.5},
            frozenset({X, Y, A0}): {X: 0.7, Y: 0.1, A0: 0.2},
        },
    )
    path = tmp_path / "violation.json"
    save(Manifest(space=space, choice=rho), str(path))
    return str(path)


class TestCheck:
    def test_vertex_passes_ru(self, vertex_path, capsys):
        assert main(["check", "--input", vertex_path, "--axiom", "ru"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_vertex_fails_aru(self, vertex_path, capsys):
        assert main(["check", "--input", vertex_path, "--axiom", "aru"]) == 1

    def test_lm_violation_reported(self, lm_violation_path, capsys):
        assert main(["check", "--input", lm_violation_path, "--axiom", "lm"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (violation,) = payload["violations"]
        assert violation["kind"] == "limited-monotonicity"
        assert violation["subject"] == [["x", "y"], ["x", "y", "a0"], "x"]

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["check", "--input", str(tmp_path / "nope.json")]) == 2

    def test_malformed_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["check", "--input", str(bad)]) == 2


class TestRationalize:
    def test_round_trips_through_evaluate(
        self, tmp_path, space, domain, capsys
    ):
        rho = random_vertex_mixture(space, domain, np.random.default_rng(4))
        source = tmp_path / "data.json"
        save(Manifest(space=space, choice=rho), str(source))
        out = tmp_path / "model.json"
        assert main(["rationalize", "--input", str(source), "--output", str(out)]) == 0
        model = load(str(out))
        assert model.metadata["verification_residual"] <= 1e-9

        # Feed the model back through `evaluate` on the same menus.
        combined = tmp_path / "combined.json"
        save(
            Manifest(
                space=space,
                correspondence=model.correspondence,
                preferences=model.preferences,
                composition=model.composition,
                choice=rho,
            ),
            str(combined),
        )
        evaluated = tmp_path / "evaluated.json"
        assert main(
            ["evaluate", "--input", str(combined), "--output", str(evaluated)]
        ) == 0
        replay = load(str(evaluated))
        assert replay.choice.max_cell_difference(rho) <= 1e-9

    def test_partial_domain_model_evaluates(self, tmp_path):
        # Dropping the atomic menu {x, z} with every mixed menu over it
        # leaves mixed menus of the full domain without a composition.
        space = AggregateSpace((X, Y, "z"), (A0,))
        kept = [
            m
            for m in ChoiceDomain.full(space).menus
            if m & space.atomic_set != frozenset({X, "z"})
        ]
        domain = ChoiceDomain(space, tuple(kept))
        rho = random_vertex_mixture(space, domain, np.random.default_rng(6))
        source, model, evaluated = (
            str(tmp_path / name) for name in ("data.json", "model.json", "ev.json")
        )
        save(Manifest(space=space, choice=rho), source)
        assert main(["rationalize", "--input", source, "--output", model]) == 0
        assert main(["evaluate", "--input", model, "--output", evaluated]) == 0
        replay = load(evaluated).choice
        assert frozenset({X, "z"}) in replay.table
        assert frozenset({X, "z", A0}) not in replay.table
        observed = StochasticChoice(space, {m: replay.row(m) for m in domain.menus})
        assert observed.max_cell_difference(rho) <= replay_tol(len(space.atomic))

    def test_all_atomic_round_trips_through_evaluate(self, tmp_path):
        # Without non-atomic aggregates the witness is the certificate.
        space = AggregateSpace((X, Y, "z"), ())
        mu = random_preferences(space.members, np.random.default_rng(7))
        rho = aru_evaluate(mu, ChoiceDomain.full(space))
        source, model, evaluated = (
            str(tmp_path / name) for name in ("data.json", "model.json", "ev.json")
        )
        save(Manifest(space=space, choice=rho), source)
        assert main(["rationalize", "--input", source, "--output", model]) == 0
        assert load(model).composition.per_menu == {}
        assert main(["evaluate", "--input", model, "--output", evaluated]) == 0
        replay = load(evaluated).choice
        assert replay.max_cell_difference(rho) <= replay_tol(3, flow_tol(3))

    def test_failure_report_is_the_check_report(self, lm_violation_path, capsys):
        assert main(["check", "--axiom", "ru", "--input", lm_violation_path]) == 1
        check = json.loads(capsys.readouterr().out)
        assert main(["rationalize", "--input", lm_violation_path]) == 1
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["method"] == check["method"] is not None
        assert {"axiom": "ru", **report} == check

    def test_axiom_failure_exits_one(self, lm_violation_path, capsys):
        assert main(["rationalize", "--input", lm_violation_path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["passed"] is False

    def test_wrong_variant_exits_two(self, tmp_path):
        space = AggregateSpace((X,), ("a0", "a1"))
        domain = ChoiceDomain.full(space)
        rho = random_vertex_mixture(space, domain, np.random.default_rng(5))
        path = tmp_path / "two.json"
        save(Manifest(space=space, choice=rho), str(path))
        assert main(
            ["rationalize", "--input", str(path), "--variant", "outside_option"]
        ) == 2


class TestDistanceAndCaratheodory:
    def test_distance_on_aru_member(self, tmp_path, space, domain, capsys):
        rho = aru_evaluate(
            random_preferences(space.members, np.random.default_rng(6)), domain
        )
        path = tmp_path / "aru.json"
        save(Manifest(space=space, choice=rho), str(path))
        assert main(["distance", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["squared_distance"] <= 1e-10

    def test_caratheodory_reports_bound(self, vertex_path, capsys):
        assert main(["caratheodory", "--input", vertex_path, "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["achieved"] <= payload["bound"] + 1e-12
        assert payload["certifies_ru_n"] == 3

    def test_caratheodory_rejects_non_ru(self, lm_violation_path):
        assert main(["caratheodory", "--input", lm_violation_path, "--k", "2"]) == 1


class TestVertices:
    def test_count_for_n6(self, capsys):
        assert main(["vertices", "--n", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertex_count_lower_bound"] == str(
            720 * 2 ** (64 - 15 - 1)
        )
        assert payload["ratio_exceeds_2^2^(n-1)"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["vertices", "--n", "0"],
            ["vertices", "--n", "14"],
            ["caratheodory", "--input", "unread.json", "--k", "0"],
        ],
    )
    def test_out_of_range_counts_are_usage_errors(self, argv, capsys):
        # Rejected at the parse, before any count is computed.
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_enumeration(self, vertex_path, capsys):
        assert main(["vertices", "--input", vertex_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["aru_vertices"]) == 6


class TestSimulateAndSweep:
    def test_simulate_default_point(self, capsys):
        assert main(["simulate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bias"] == pytest.approx(-0.1116, abs=1e-3)
        assert payload["squared_distance"] <= 1e-8  # menu-independent default

    @pytest.mark.parametrize("triple", ["0.5,0.5,0.0000000005", "nan,0.5,0.5"])
    def test_simulate_rejects_a_triple_at_the_parse(self, triple, capsys):
        # The parse applies the composition distribution's own rule, so a
        # total 5e-10 above 1 fails there, not inside the library.
        assert main(["simulate", "--lambda-x", triple]) == 2
        assert "composition triple must be a probability vector" in (
            capsys.readouterr().err
        )

    def test_simulate_accepts_decimal_triples(self, capsys):
        assert main(["simulate", "--lambda-x", "0.1,0.2,0.7"]) == 0

    def test_sweep_csv_deterministic(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        svg = tmp_path / "map.svg"
        for target in (first, second):
            assert main(
                [
                    "sweep",
                    "--mode",
                    "lambda",
                    "--output-csv",
                    str(target),
                    "--output-svg",
                    str(svg),
                ]
            ) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().strip().splitlines()
        assert lines[0] == "lam_z,lam_w,lam_zw,bias,squared_distance"
        assert len(lines) == 67  # header + 66 grid rows
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "measures, header, row",
        [
            ("bias", "lam_z,lam_w,lam_zw,bias", "0,0,1,-0.26011101"),
            (
                "distance",
                "lam_z,lam_w,lam_zw,squared_distance",
                "0,0,1,0.000601869238",
            ),
        ],
    )
    def test_sweep_writes_only_measured_columns(
        self, tmp_path, measures, header, row
    ):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        argv = ["sweep", "--mode", "lambda", "--grid", "0.5", "--measures", measures]
        assert main(argv + ["--output-csv", str(out), "--output-svg", str(svg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[:2] == [header, row]
        assert len(lines) == 7
        assert "None" not in out.read_text()
        measure = header.rsplit(",", 1)[1]
        assert f"{measure} (lambda sweep)" in svg.read_text()

    def test_utility_csv_independent_of_hash_seed(self, tmp_path):
        src = str(pathlib.Path(aggchoice.__file__).resolve().parent.parent)
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"utility-{seed}.csv"
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            argv = ["sweep", "--mode", "utility", "--resolution", "2.5"]
            argv += ["--output-csv", str(out)]
            subprocess.run(
                [sys.executable, "-m", "aggchoice.cli", *argv], env=env, check=True
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "utility", "--resolution", "0"],
            ["--mode", "utility", "--resolution", "-1"],
            ["--mode", "utility", "--resolution", "0.3"],
            ["--mode", "utility", "--resolution", "nan"],
            ["--mode", "lambda", "--grid", "0.3"],
            ["--mode", "minmax", "--grid", "0.3"],
            ["--mode", "minmax", "--resolution", "0"],
        ],
    )
    def test_bad_grid_step_is_usage_error(self, tmp_path, argv, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--output-csv", str(out)]) == 2
        assert "must divide 1" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_csv_bytes(self, tmp_path):
        out = tmp_path / "lambda.csv"
        assert main(
            ["sweep", "--mode", "lambda", "--grid", "0.5", "--output-csv", str(out)]
        ) == 0
        assert out.read_text() == (
            "lam_z,lam_w,lam_zw,bias,squared_distance\n"
            "0,0,1,-0.26011101,0.000601869238\n"
            "0,0.5,0.5,0.333600164,0.0274452683\n"
            "0,1,0,0.849571534,0.209424381\n"
            "0.5,0,0.5,-0.249635879,0.000406460116\n"
            "0.5,0.5,0,0.341666624,0.0289130243\n"
            "1,0,0,-0.239226143,0.00024928269\n"
        )

    def test_minmax_csv_bytes(self, tmp_path):
        out = tmp_path / "minmax.csv"
        argv = ["sweep", "--mode", "minmax", "--grid", "0.5", "--resolution", "0.1"]
        assert main(argv + ["--output-csv", str(out)]) == 0
        assert out.read_text() == (
            "lam_w,lam_z,max_bias,min_bias,min_abs_bias,independent_bias\n"
            "0,0,3.04858735,-3.04858735,0,0\n"
            "0,0.5,3.04858735,-3.04858735,0,-8.70529113e-05\n"
            "0,1,3.04858735,-3.04858735,0,-2.22044605e-16\n"
            "0.5,0,3.04858735,-3.04858735,0,-0.405551043\n"
            "0.5,0.5,3.04858735,-3.04858735,0,-0.396508293\n"
            "1,0,3.04858735,-3.04858735,0,-1.11022302e-15\n"
        )

    def test_minmax_csv(self, tmp_path):
        out = tmp_path / "mm.csv"
        assert main(["sweep", "--mode", "minmax", "--output-csv", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 67
        header = lines[0].split(",")
        assert header == [
            "lam_w",
            "lam_z",
            "max_bias",
            "min_bias",
            "min_abs_bias",
            "independent_bias",
        ]
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(values) > 2
