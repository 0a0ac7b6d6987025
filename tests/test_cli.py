import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import kickedrotor
from kickedrotor import (
    LeakageError,
    NumericalError,
    SimConfig,
    evolve,
    perturbative_density,
    position_density,
    to_position,
    width_scaling,
)
from kickedrotor import cli, propagator, scanner
from kickedrotor.cli import NonFiniteOutputError, _write_table, main

#: every refusal the package exports for exit 3, and the CLI's own
NUMERICAL_ERRORS = [
    *(kind for kind in map(vars(kickedrotor).get, kickedrotor.__all__)
      if isinstance(kind, type) and issubclass(kind, NumericalError)),
    NonFiniteOutputError,
]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestEvolveCommand:
    def test_csv_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["evolve", "--kicks", "10", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "position_density.csv")
        assert header == ["X", "density"]
        cfg = SimConfig(kicks=10)
        assert len(rows) == cfg.n_points

        # values round-trip exactly through the text encoding
        expect = position_density(to_position(evolve(cfg), cfg.grid())).values
        parsed = np.array([float(r[1]) for r in rows])
        assert np.array_equal(parsed, expect)

        header, rows = read_csv(out / "momentum_density.csv")
        assert header == ["m", "prob"]
        assert rows[0][0] == "-37"
        assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-12)

    def test_json_outputs_and_manifest_split(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "evolve", "--kicks", "3", "--epsilon", "1e-6",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out / "position_density.json")
        assert set(doc) == {"manifest", "data"}
        assert doc["manifest"]["config"]["epsilon"] == 1e-6
        assert doc["manifest"]["config"]["half_width"] == 34
        assert "wall_time_s" not in doc["manifest"]
        assert len(doc["data"]["X"]) == len(doc["data"]["density"])

        standalone = read_json(out / "manifest.json")
        assert standalone["wall_time_s"] >= 0.0
        assert standalone["command"] == "evolve"
        assert "health" in standalone

    def test_explicit_basis_and_grid(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "evolve", "--kicks", "2", "--basis", "40", "--grid", "256",
            "--out", str(out),
        ])
        assert code == 0
        assert read_json(out / "manifest.json")["config"]["n_points"] == 256

    def test_grid_below_the_default_is_the_grid_written(self, tmp_path):
        # 200 points hold the ladder of 10 kicks (M = 37 needs 150) but
        # are fewer than the default 256
        out = tmp_path / "run"
        code = main(["evolve", "--kicks", "10", "--grid", "200", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "position_density.csv")
        assert len(rows) == 200
        cfg = SimConfig(kicks=10, n_points=200)
        expect = position_density(to_position(evolve(cfg), cfg.grid())).values
        assert np.array_equal([float(r[1]) for r in rows], expect)
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["n_points"] == 200
        assert manifest["health"]["half_width_used"] == cfg.half_width == 37

    def test_validation_failure_exits_2(self, tmp_path):
        code = main([
            "evolve", "--kicks", "2", "--basis", "40", "--grid", "64",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_detuning_past_one_percent_runs(self, tmp_path):
        # the exact propagation holds at any finite detuning
        out = tmp_path / "run"
        assert main(["evolve", "--kicks", "3", "--epsilon", "0.02",
                     "--format", "json", "--out", str(out)]) == 0
        assert read_json(out / "manifest.json")["config"]["epsilon"] == 0.02
        data = read_json(out / "position_density.json")["data"]
        cfg = SimConfig(kicks=3, epsilon=0.02)
        expect = position_density(to_position(evolve(cfg), cfg.grid())).values
        assert data["density"] == expect.tolist()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["evolve", "--out", "somewhere"])  # --kicks missing
        assert err.value.code == 2


class TestPerturbativeCommand:
    def test_csv_difference_column(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "perturbative", "--kicks", "5", "--epsilon", "1e-7",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out / "density_comparison.csv")
        assert header == ["X", "numeric", "perturbative", "difference"]
        for r in rows[:32]:
            assert float(r[3]) == float(r[1]) - float(r[2])

    def test_json_byte_stable_with_stage_times(self, tmp_path):
        args = ["perturbative", "--kicks", "20", "--epsilon", "1.1e-6",
                "--format", "json"]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(args + ["--out", str(out)]) == 0
        name = "density_comparison.json"
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert "stage_s" not in read_json(outs[0] / name)["manifest"]
        stages = read_json(outs[0] / "manifest.json")["stage_s"]
        assert set(stages) == {"evolve", "first_order"}
        for seconds in stages.values():
            assert isinstance(seconds, float) and seconds >= 0.0

    def test_detuning_window_enforced(self, tmp_path, capsys):
        # no window on epsilon itself: the first-order strength K = 45.7
        # refuses the run
        code = main([
            "perturbative", "--kicks", "5", "--epsilon", "0.5",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "first-order strength K = 45.7" in capsys.readouterr().err

    def test_detuning_past_one_percent_runs(self, tmp_path):
        # |epsilon| = 0.02 at one kick is K = 0.122, inside the route
        out = tmp_path / "run"
        assert main(["perturbative", "--kicks", "1", "--epsilon", "0.02",
                     "--format", "json", "--out", str(out)]) == 0
        K = read_json(out / "manifest.json")["first_order_K"]
        assert K == pytest.approx(2 * math.pi * 0.02 * 0.485 * 2, rel=1e-15)
        data = read_json(out / "density_comparison.json")["data"]
        assert min(data["perturbative"]) > 0.0

    def test_refused_strength_makes_no_period(self, tmp_path):
        # K = 60977 reads the flags alone: the refusal comes before the
        # exact run's 2000 periods, not after them
        out = tmp_path / "x"
        with mock.patch.object(propagator, "_kick", wraps=propagator._kick) as kick:
            code = main(["perturbative", "--kicks", "2000", "--epsilon", "5e-3",
                         "--out", str(out)])
        assert code == 2
        assert kick.call_count == 0
        assert not out.exists()

    def test_strength_past_one_exits_2(self, tmp_path, capsys):
        # K = 613 at a small detuning: the first-order density
        # would run from -97 to +98, so the run is refused and writes nothing
        out = tmp_path / "x"
        code = main(["perturbative", "--kicks", "200", "--epsilon", "5e-3",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "K = 612.5" in capsys.readouterr().err

    def test_strength_only_in_standalone_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert main(["perturbative", "--kicks", "20", "--epsilon", "1.1e-6",
                     "--l", "2", "--format", "json", "--out", str(out)]) == 0
        K = read_json(out / "manifest.json")["first_order_K"]
        assert K == pytest.approx(2 * math.pi * 2 * 1.1e-6 * 0.485 * 20 * 21, rel=1e-15)
        data = read_json(out / "density_comparison.json")
        assert "first_order_K" not in data["manifest"]

    def test_first_order_column_at_revival_order(self, tmp_path):
        # --l reaches the first-order density, not only the exact run
        out = tmp_path / "run"
        assert main(["perturbative", "--kicks", "40", "--epsilon", "1e-5",
                     "--l", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out / "density_comparison.csv")
        cfg = SimConfig(kicks=40, epsilon=1e-5, l=2)
        expect = perturbative_density(40, 0.485, 1e-5, cfg.grid(), cfg.half_width, l=2)
        assert [float(r[2]) for r in rows] == expect.values.tolist()


class TestScanCommand:
    def test_csv_and_json(self, tmp_path):
        args = [
            "scan", "--kicks", "5", "--mode", "fidelity",
            "--eps-max", "0.032", "--points", "33",
        ]
        code = main(args + ["--out", str(tmp_path / "c")])
        assert code == 0
        header, rows = read_csv(tmp_path / "c" / "scan.csv")
        assert header == ["epsilon", "value"]
        assert len(rows) == 33

        code = main(args + ["--format", "json", "--out", str(tmp_path / "j")])
        assert code == 0
        doc = read_json(tmp_path / "j" / "scan.json")
        assert set(doc) == {"manifest", "data", "fwhm"}
        assert doc["fwhm"] == pytest.approx(0.0508, abs=5e-4)
        assert doc["manifest"]["config"]["epsilon_max"] == 0.032

    def test_auto_range_is_default(self, tmp_path):
        code = main([
            "scan", "--kicks", "5", "--mode", "fidelity", "--points", "33",
            "--out", str(tmp_path / "a"),
        ])
        assert code == 0
        man = read_json(tmp_path / "a" / "manifest.json")
        assert man["config"]["epsilon_max"] == pytest.approx(0.032, rel=1e-12)

    def test_auto_range_probes_are_reused(self, tmp_path, monkeypatch):
        rows, reads = [], []
        run, echo = scanner._run, scanner.PROBES["fidelity"]

        def counting_run(kicks, phi_d, phases, *args, **kwargs):
            # a sweep binds its block's detunings to the phase table
            rows.extend(phases.args[1])
            return run(kicks, phi_d, phases, *args, **kwargs)

        def counting_echo(kicks, phi_d):
            fidelities = echo.observer(kicks, phi_d)

            def counting(amps):
                reads.append(len(amps))
                return fidelities(amps)

            return counting

        monkeypatch.setattr(scanner, "_run", counting_run)
        monkeypatch.setitem(scanner.PROBES, "fidelity",
                            echo._replace(observer=counting_echo))
        code = main(["scan", "--kicks", "40", "--mode", "fidelity",
                     "--out", str(tmp_path / "a")])
        assert code == 0
        # every |epsilon| of the 65-point grid, each propagated and read once
        assert len(rows) == len(set(rows)) == sum(reads) == 33

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_crossing_exits_3(self, tmp_path, capsys, fmt):
        # a range far below the feature size leaves the profile flat to
        # rounding noise; the width request must fail loudly, also when
        # the file written would not carry the width. At 1e-300 every
        # value is exactly 1, so argmax sits at the edge
        for eps_max in ("1e-18", "1e-300"):
            out = tmp_path / eps_max
            code = main([
                "scan", "--kicks", "5", "--mode", "fidelity",
                "--eps-max", eps_max, "--points", "33",
                "--format", fmt, "--out", str(out),
            ])
            assert code == 3
            assert capsys.readouterr().err == \
                "error: profile contrast is at rounding noise; widen the range\n"
            assert not list(out.glob("scan.*"))

    def test_range_cap_exits_3(self, tmp_path):
        code = main([
            "scan", "--kicks", "1", "--mode", "position",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 3

    @pytest.mark.parametrize("mode", ["position", "fidelity"])
    @pytest.mark.parametrize("eps_max", ["0.01", "auto"])
    def test_zero_kicks_exits_2(self, tmp_path, capsys, mode, eps_max):
        # a sweep needs at least one kick in every mode and range choice
        code = main([
            "scan", "--kicks", "0", "--mode", mode, "--eps-max", eps_max,
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "kicks must be >= 1, got 0" in capsys.readouterr().err
        assert not list((tmp_path / "x").glob("scan.*"))

    def test_integer_past_the_float_range_exits_2(self, tmp_path, capsys):
        code = main([
            "scan", "--kicks", "5", "--mode", "fidelity", "--l", str(10**400),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "l must lie within the float range" in capsys.readouterr().err
        assert not list((tmp_path / "x").glob("scan.*"))

    def test_kick_number_whose_square_is_past_the_float_range_exits_2(
            self, tmp_path, capsys):
        # the probe ladder starts at 0.1 / N^2, which needs N^2 as a float
        code = main([
            "scan", "--kicks", str(10**155), "--mode", "position",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert ("kicks squared must lie within the float range"
                in capsys.readouterr().err)
        assert not list((tmp_path / "x").glob("scan.*"))

    def test_range_of_too_few_floats_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main([
            "scan", "--mode", "position", "--kicks", "8",
            "--eps-max", "5e-324", "--out", str(out),
        ])
        assert code == 2
        assert ("cannot hold 65 distinct detunings"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_points_exits_2(self, tmp_path):
        code = main([
            "scan", "--kicks", "5", "--mode", "fidelity", "--points", "34",
            "--eps-max", "0.02", "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_byte_stable_across_threads(self, tmp_path):
        # --threads omitted, 1 and 4 write the same bytes
        scan = [
            "scan", "--kicks", "5", "--mode", "fidelity",
            "--eps-max", "0.032", "--points", "33",
        ]
        scaling = [
            "scaling", "--mode", "both", "--n-from", "5", "--n-to", "8",
            "--points", "33",
        ]
        runs = [(scan, "scan", "csv"), (scan, "scan", "json"),
                (scaling, "scaling", "json")]
        for base, stem, fmt in runs:
            outs = []
            for threads in ([], ["--threads", "1"], ["--threads", "4"]):
                out = tmp_path / f"{stem}-{fmt}-{len(outs)}"
                code = main(base + ["--format", fmt, *threads,
                                    "--out", str(out)])
                assert code == 0
                outs.append(out)
            name = f"{stem}.{fmt}"
            assert len({(out / name).read_bytes() for out in outs}) == 1

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        # QKR_THREADS is no longer read: with it set and --threads omitted,
        # a scan writes the bytes of --threads 1
        ref = tmp_path / "ref"
        assert main([
            "scan", "--kicks", "4", "--mode", "fidelity", "--eps-max", "0.05",
            "--points", "33", "--threads", "1", "--out", str(ref),
        ]) == 0
        monkeypatch.setenv("QKR_THREADS", "3")
        env = tmp_path / "env"
        assert main([
            "scan", "--kicks", "4", "--mode", "fidelity", "--eps-max", "0.05",
            "--points", "33", "--out", str(env),
        ]) == 0
        assert (ref / "scan.csv").read_bytes() == (env / "scan.csv").read_bytes()


class TestScalingCommand:
    def test_live_both_mode(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "scaling", "--mode", "both", "--n-from", "5", "--n-to", "8",
            "--points", "33", "--threads", "4",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out / "scaling.json")
        assert set(doc) == {"manifest", "data", "fit"}
        fit = doc["fit"]
        assert set(fit) == {
            "position", "fidelity", "crossover_first_exceed", "crossover_fit",
        }
        assert fit["position"]["gamma"] < -1.5
        assert fit["fidelity"]["gamma"] < fit["position"]["gamma"]
        assert math.isfinite(fit["crossover_fit"])

    def test_live_single_mode_csv(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "scaling", "--mode", "fidelity", "--n-from", "5", "--n-to", "8",
            "--points", "33", "--threads", "4", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out / "scaling.csv")
        assert header == ["N", "width"]
        assert [r[0] for r in rows] == ["5", "6", "7", "8"]
        widths = [float(r[1]) for r in rows]
        assert widths == sorted(widths, reverse=True)

    def test_live_single_mode_json(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "scaling", "--mode", "position", "--n-from", "5", "--n-to", "8",
            "--points", "33", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        doc = read_json(out / "scaling.json")
        assert set(doc) == {"manifest", "data", "fit"}
        law = width_scaling([5, 6, 7, 8], 0.485, 1, "position", 33)
        assert doc["data"] == {"N": [5, 6, 7, 8], "width": law.widths.tolist()}
        assert doc["fit"] == {"gamma": law.gamma, "intercept": law.intercept,
                              "r_squared": law.r_squared}

    @pytest.mark.parametrize("argv,exit_code", [
        (["--mode", "both", "--n-from", "1", "--n-to", "8"], 2),
        (["--mode", "position", "--points", "64"], 2),
        (["--mode", "both", "--phi-d", "0.1", "--n-from", "5", "--n-to", "12"], 3),
    ], ids=["kick-number", "points", "range-cap"])
    def test_refused_run_leaves_no_directory(self, tmp_path, argv, exit_code):
        out = tmp_path / "D"
        assert main(["scaling", *argv, "--out", str(out)]) == exit_code
        assert not out.exists()

    def test_laws_that_never_meet_write_a_null_crossover(self, tmp_path):
        # the fitted slopes differ by 0.002: the laws meet past the float
        # range, where math.exp would overflow
        out = tmp_path / "run"
        code = main([
            "scaling", "--mode", "both", "--phi-d", "7.9984375",
            "--n-from", "25", "--n-to", "29", "--points", "33",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        assert read_json(out / "scaling.json")["fit"]["crossover_fit"] is None


@pytest.mark.parametrize("argv,exit_code", [
    (["evolve", "--kicks", "2", "--basis", "40", "--grid", "64"], 2),
    (["perturbative", "--kicks", "5", "--epsilon", "0.5"], 2),
    (["scan", "--mode", "position", "--kicks", "0"], 2),
    (["scan", "--mode", "fidelity", "--kicks", "5", "--phi-d", "0.1"], 3),
], ids=["evolve", "perturbative", "scan-position", "scan-fidelity"])
def test_refused_subcommand_leaves_no_directory(tmp_path, argv, exit_code):
    # only main makes --out, and only once the measurement has returned;
    # TestScalingCommand::test_refused_run_leaves_no_directory runs scaling
    out = tmp_path / "D"
    assert main([*argv, "--out", str(out)]) == exit_code
    assert not out.exists()


def test_json_refuses_non_finite_and_writes_nothing(tmp_path):
    with pytest.raises(NonFiniteOutputError):
        _write_table(tmp_path, "t", "json", {}, {"x": [1.0, math.nan]})
    assert not (tmp_path / "t.json").exists()


class TestExitCodes:
    def test_every_refusal_type_is_listed(self):
        names = {kind.__name__ for kind in NUMERICAL_ERRORS}
        assert names >= {"NumericalError", "LeakageError", "TruncationError",
                         "NoCrossingError", "RangeCapError", "FitRefusalError",
                         "NonFiniteOutputError"}

    @staticmethod
    def run_raising(monkeypatch, tmp_path, exc) -> int:
        """qkr evolve with a subcommand that raises exc."""
        def command(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_evolve", command)
        return main(["evolve", "--kicks", "1", "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("kind", NUMERICAL_ERRORS, ids=lambda k: k.__name__)
    def test_numerical_refusal_exits_3(self, tmp_path, capsys, monkeypatch, kind):
        exc = kind(0.25, 7) if kind is LeakageError else kind(f"{kind.__name__} here")
        assert self.run_raising(monkeypatch, tmp_path, exc) == 3
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_value_error_exits_2(self, tmp_path, capsys, monkeypatch):
        exc = ValueError("kicks must be >= 0, got -1")
        assert self.run_raising(monkeypatch, tmp_path, exc) == 2
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_os_error_exits_2(self, tmp_path, capsys):
        # --out names a file, so the output directory cannot be made
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["evolve", "--kicks", "1", "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert taken.read_text() == ""

    def test_other_runtime_error_is_not_a_refusal(self, tmp_path, monkeypatch):
        # only a NumericalError is a numerical refusal; anything else is a bug
        with pytest.raises(RuntimeError, match="a bug"):
            self.run_raising(monkeypatch, tmp_path, RuntimeError("a bug"))


class TestNegativeExponent:
    """A negative value in exponent notation is a value for every float
    flag, as it is written with a decimal point."""

    @staticmethod
    def outputs(out: Path) -> dict:
        """Each file of a run; manifest.json without its wall and stage times."""
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        manifest = json.loads(files.pop("manifest.json"))
        manifest.pop("wall_time_s")
        manifest.pop("stage_s", None)
        return {**files, "manifest.json": manifest}

    @pytest.mark.parametrize("command", ["evolve", "perturbative"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spaced_value_runs_as_the_joined_one(self, tmp_path, command, fmt):
        runs = []
        for name, flag in (("spaced", ["--epsilon", "-2e-5"]),
                           ("joined", ["--epsilon=-2e-5"])):
            out = tmp_path / name
            assert main([command, "--kicks", "7", *flag, "--format", fmt,
                         "--out", str(out)]) == 0
            runs.append(self.outputs(out))
        assert runs[0] == runs[1]
        assert runs[0]["manifest.json"]["config"]["epsilon"] == -2e-5

    @pytest.mark.parametrize("argv,dest,value", [
        (["evolve", "--kicks", "7", "--epsilon", "-2E+0"], "epsilon", -2.0),
        (["perturbative", "--kicks", "7", "--epsilon", "-.5e-3"], "epsilon",
         -5e-4),
        (["evolve", "--kicks", "7", "--phi-d", "-4.85e-1"], "phi_d", -0.485),
        (["scan", "--kicks", "7", "--mode", "position", "--eps-max", "-1e-3"],
         "eps_max", "-1e-3"),
        (["scaling", "--mode", "both", "--phi-d", "-1e0"], "phi_d", -1.0),
    ])
    def test_every_float_flag(self, argv, dest, value):
        args = cli.build_parser().parse_args([*argv, "--out", "D"])
        assert getattr(args, dest) == value

    @pytest.mark.parametrize("argv", [
        [],
        ["evolve", "--out", "D"],
        ["evolve", "--kicks", "7", "--epsilon", "--out", "D"],
        ["evolve", "--kicks", "7", "--epsilon", "abc", "--out", "D"],
        ["evolve", "--kicks", "-1.5", "--out", "D"],
        ["scan", "--kicks", "7", "--mode", "echo", "--out", "D"],
        ["scaling", "--mode", "both", "--out", "D", "--bogus"],
        ["scan", "--help"],
    ])
    def test_usage_text_is_argparse_text(self, monkeypatch, capsys, argv):
        texts = []
        for parser_class in (cli._Parser, argparse.ArgumentParser):
            monkeypatch.setattr(cli, "_Parser", parser_class)
            with pytest.raises(SystemExit) as err:
                main(argv)
            texts.append((err.value.code, capsys.readouterr()))
        assert texts[0] == texts[1]


class TestEntryPoint:
    @staticmethod
    def run_module(*args: str) -> subprocess.CompletedProcess:
        """python -m kickedrotor with args, in a child process."""
        # the child finds the package the way this test process did
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "kickedrotor", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_module_invocation(self):
        proc = self.run_module("--help")
        assert proc.returncode == 0
        assert "evolve" in proc.stdout and "scaling" in proc.stdout
        proc = self.run_module("scan", "--help")
        assert proc.returncode == 0
        assert "--eps-max" in proc.stdout

    def test_module_refusal_exits_2(self, tmp_path):
        # the exit code main returns reaches the shell through __main__
        proc = self.run_module("scan", "--kicks", "0", "--mode", "position",
                               "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert proc.stderr == "error: kicks must be >= 1, got 0\n"
        assert not list((tmp_path / "x").glob("scan.*"))
