import hashlib
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
SRC = str(pathlib.Path(aggchoice.__file__).resolve().parent.parent)


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

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["check", "--input", missing]) == 2
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"

    def test_malformed_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["check", "--input", str(bad)]) == 2


class TestUnusableFiles:
    # A file the CLI cannot read or write is an input error (exit 2), not
    # an axiom violation (exit 1), and gets one line on stderr.
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--input", "{dir}"],
            ["check", "--input", "{latin1}"],
            ["vertices", "--n", "3", "--output", "{dir}"],
            ["sweep", "--mode", "lambda", "--grid", "0.5", "--measures", "bias",
             "--output-csv", "{dir}"],
        ],
        ids=["input-dir", "input-latin1", "vertices-output-dir", "sweep-csv-dir"],
    )
    def test_is_usage_error(self, argv, tmp_path, capsys):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"space": "é"}'.encode("latin-1"))
        paths = {"dir": str(tmp_path), "latin1": str(latin1)}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_an_unwritable_svg_leaves_the_csv_unwritten(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        argv = ["sweep", "--mode", "lambda", "--grid", "0.5",
                "--output-csv", str(csv), "--output-svg", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"
        assert not csv.exists()

    @pytest.mark.parametrize("name", ["--output-csv", "--output-svg"])
    def test_an_unwritable_output_is_refused_before_the_grid_runs(
        self, name, tmp_path, monkeypatch
    ):
        def computed(*args):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(aggchoice.cli, "sweep", computed)
        csv = str(tmp_path / "x.csv") if name == "--output-svg" else str(tmp_path)
        argv = ["sweep", "--mode", "utility", "--resolution", "0.25"]
        argv += ["--output-csv", csv]
        if name == "--output-svg":
            argv += ["--output-svg", str(tmp_path / "missing" / "x.svg")]
        assert main(argv) == 2

    def test_an_output_in_a_missing_directory_is_refused(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "out.json"
        assert main(["vertices", "--n", "3", "--output", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {missing}: No such file or directory\n"


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

    def test_failure_leaves_no_model_file(self, tmp_path, lm_violation_path, capsys):
        model = tmp_path / "model.json"
        argv = ["rationalize", "--input", lm_violation_path, "--output", str(model)]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["report"]["passed"] is False
        assert not model.exists()
        assert main(["evaluate", "--input", str(model)]) == 2
        assert "no such file" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", [["distance"], ["caratheodory", "--k", "1"]])
    def test_nine_ids_exceed_the_cap(self, tmp_path, capsys, command):
        # The subset lattice holds n * 3^(n - 1) cell entries, so it has the
        # cap of every order enumeration.  Two menus are enough to reach it.
        space = AggregateSpace(tuple(f"x{k}" for k in range(7)), ("a0", "a1"))
        rho = StochasticChoice(
            space,
            {frozenset({"x0"}): {"x0": 1.0}, frozenset({"x0", "a0"}): {"a0": 1.0}},
        )
        path = tmp_path / "nine.json"
        save(Manifest(space=space, choice=rho), str(path))
        assert main([*command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot enumerate orders on 9 ids (cap is 8)\n"

    @pytest.mark.parametrize("command", [["distance"], ["caratheodory", "--k", "2"]])
    def test_a_table_without_menus_is_a_usage_error(
        self, tmp_path, capsys, space, command
    ):
        path = tmp_path / "empty.json"
        save(Manifest(space=space, choice=StochasticChoice(space, {})), str(path))
        assert json.loads(path.read_text())["stochastic_choice"] == []
        assert main([*command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the choice table has no menus\n"

    def test_caratheodory_rejects_non_ru(self, lm_violation_path):
        assert main(["caratheodory", "--input", lm_violation_path, "--k", "2"]) == 1

    def test_caratheodory_failure_leaves_output_untouched(
        self, tmp_path, lm_violation_path, capsys
    ):
        # As for rationalize: the payload goes to stdout, --output is not written.
        existing, absent = tmp_path / "existing.json", tmp_path / "absent.json"
        existing.write_bytes(b"earlier result\n")
        for target in (existing, absent):
            argv = ["caratheodory", "--input", lm_violation_path, "--k", "2"]
            assert main(argv + ["--output", str(target)]) == 1
            payload = json.loads(capsys.readouterr().out)
            assert payload == {"error": "sparse approximation needs RU-rational data"}
        assert existing.read_bytes() == b"earlier result\n"
        assert not absent.exists()


class TestParser:
    def test_back_to_back_calls_match_single_calls(self, vertex_path, capsys):
        # The parser is built once per process; no state may carry over.
        commands = [
            ["check", "--input", vertex_path, "--axiom", "aru"],
            ["vertices", "--n", "3"],
            ["caratheodory", "--input", vertex_path, "--k", "2"],
            ["check", "--input", vertex_path],
            ["distance", "--input", "missing.json"],
        ]
        for argv in commands:
            code, out = main(argv), capsys.readouterr()
            single = subprocess.run(
                [sys.executable, "-m", "aggchoice.cli", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC},
            )
            assert (code, out.out, out.err) == (
                single.returncode,
                single.stdout,
                single.stderr,
            )


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

    @pytest.mark.parametrize("triple", ["a,b,c", "0.5,0.5", "0.5,,0.5"])
    def test_simulate_rejects_a_triple_that_is_not_three_numbers(self, triple, capsys):
        assert main(["simulate", "--lambda-x", triple]) == 2
        assert "error: composition triples need three comma-separated numbers" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag", ["--ux", "--uy", "--uz", "--uw"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "two"])
    def test_simulate_rejects_a_non_finite_utility_at_the_parse(
        self, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", f"{flag}={value}"])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be a finite number" in captured.err
        assert "Warning" not in captured.err

    def test_simulate_takes_a_negative_exponent_after_an_equals_sign(self, capsys):
        # "--ux -1e5" is read as a second option; "--ux=-1e5" is a value.
        assert main(["simulate", "--ux=-1e5"]) == 0
        assert json.loads(capsys.readouterr().out)["utilities"]["x"] == -100000.0

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
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"utility-{seed}.csv"
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
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

    @pytest.mark.parametrize(
        "argv, csv_digest, svg_digest",
        [
            (
                ["--mode", "lambda", "--grid", "0.25"],
                "c6bcf1b78eb1df8089f7160a7f94d61d275df9ff02961e421fb5f0174960c62b",
                "bd37ebc072fa1e7285204423848525ece3dae8883229584828b9d75bd9420d70",
            ),
            (
                ["--mode", "utility", "--resolution", "2.5"],
                "06e79fc636d91454b990f2f8c93678390cb070e9016ce4c16937d8f12401d885",
                "04ae33459ffcf8634f939bc90cef705e0970e88ad0528bf52cc3cb987951ae84",
            ),
            (
                ["--mode", "minmax", "--grid", "0.25", "--resolution", "0.05"],
                "439a6c7d7df6f550e87552ad7596591433ad0283537535bb44b68b6b2ad8d755",
                "ab47c402f32b552d3bb1915e174a7914b624560cc7886ed5bf999a3d6329784c",
            ),
            # The grids of the sweep benchmark, under each --measures.
            (
                ["--mode", "lambda", "--grid", "0.1", "--measures", "both"],
                "c40df6fdd93c89c68af560b2c2a1a502386398f608fb90694d70a8706db73e34",
                "ea797a0a0efaab4e4e1a5a290f9ce5daddebc85f5fdb30256be64683973f6634",
            ),
            (
                ["--mode", "lambda", "--grid", "0.1", "--measures", "bias"],
                "b3f60d42b1bdc34048d41364e5411e46a1ee8d9338334b3eb539f0662e668865",
                "bd79073b1386120ea51700a7ff605e2a045d0c412a9df937dbac91120e9529ec",
            ),
            (
                ["--mode", "lambda", "--grid", "0.1", "--measures", "distance"],
                "39ad724b5681571a48dee10faadbf6b6d19240caea64ea0e5ca0ecffdf4abc4b",
                "ea797a0a0efaab4e4e1a5a290f9ce5daddebc85f5fdb30256be64683973f6634",
            ),
            (
                ["--mode", "utility", "--resolution", "0.5", "--measures", "both"],
                "39c8c1911950808c8f966d21ae1b2a1e8753736760d2f95847a0d0edf153e986",
                "a16da160dd478a33d54438a3b26ecc3d5fc9522dae44fe0fbf6359f4775f7411",
            ),
            (
                ["--mode", "utility", "--resolution", "0.5", "--measures", "bias"],
                "5d95a14c8edaa6a0d47f30b1b1a1669d92df8e78f6dff4254809c787278dfe4e",
                "fa31460dbaa37a20d6f9f2b4f81953146e61d52936182b91dcad63a42817fda1",
            ),
            (
                ["--mode", "utility", "--resolution", "0.5", "--measures", "distance"],
                "77f6231b1cfc3af4ff9001df914ec49bd893041c143fec64f2e9a23d78cf5af7",
                "a16da160dd478a33d54438a3b26ecc3d5fc9522dae44fe0fbf6359f4775f7411",
            ),
        ],
    )
    def test_sweep_golden_bytes(self, tmp_path, argv, csv_digest, svg_digest):
        csv, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        argv = ["sweep", *argv, "--output-csv", str(csv), "--output-svg", str(svg)]
        assert main(argv) == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "5ab4f0733645a577c3c97a30562bec1c5650a3d4111f8047e6a778eba51a162e"),
            (
                ["--lambda-x", "0,1,0"],
                "c1bbb1dae56263a16e1bf353c777b5d3aef61b272904f6fe7727693349215d75",
            ),
        ],
    )
    def test_simulate_golden_bytes(self, tmp_path, argv, digest):
        out = tmp_path / "simulate.json"
        assert main(["simulate", *argv, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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
