import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from rtmotion import cli
from rtmotion.cli import main
from rtmotion.runtime import ScenarioError, run_scenario

from conftest import data_path


CHAIN = str(data_path("chains", "arm6.json"))
WAYPOINTS = str(data_path("waypoints", "line7.json"))


class TestPlanCommand:
    def test_writes_trajectory_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["plan", CHAIN, WAYPOINTS, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "T_N = 3.500 s" in stdout
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,q0,qd0,qdd0")
        assert len(lines) == 352  # header + 351 samples at 100 Hz over 3.5 s

    def test_empty_waypoint_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        code = main(["plan", CHAIN, str(empty)])
        assert code != 0
        assert "waypoints: empty" in capsys.readouterr().err

    def test_missing_file_fails(self, capsys):
        code = main(["plan", CHAIN, "/nonexistent/wps.json"])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_bad_q0_rejected(self, capsys):
        code = main(["plan", CHAIN, WAYPOINTS, "--q0", "0,0"])
        assert code != 0
        assert "--q0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("q0", "could not convert string to float: 'a'"),
            ("waypoints", "Expecting value"),
            ("chain", "missing key 'joints'"),
            ("chain array", "chain.json: malformed chain description"),
            ("joint not an object", "chain.json: malformed chain description"),
            ("2-entry rpy", "chain.json: malformed chain description"),
            ("NaN xyz", "joint 1 offset is not finite"),
            ("huge duration", "waypoint 0: int too large to convert to float"),
            ("NaN q0", "initial state must hold 6 finite values"),
        ],
        ids=[
            "non-numeric q0",
            "malformed waypoint JSON",
            "chain without joints",
            "chain that is an array",
            "joint that is not an object",
            "offset rpy with 2 entries",
            "NaN offset xyz",
            "400-digit waypoint duration",
            "NaN q0",
        ],
    )
    def test_malformed_inputs_are_input_errors(self, tmp_path, capsys, case, message):
        raw_chain = json.loads(Path(CHAIN).read_text())
        if case == "chain":
            del raw_chain["joints"]
        elif case == "chain array":
            raw_chain = raw_chain["joints"]
        elif case == "joint not an object":
            raw_chain["joints"][2] = 1.0
        elif case == "2-entry rpy":
            raw_chain["joints"][0]["offset"]["rpy"] = [0.0, 0.0]
        elif case == "NaN xyz":
            raw_chain["joints"][1]["offset"]["xyz"][2] = float("nan")
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(raw_chain))
        raw_waypoints = json.loads(Path(WAYPOINTS).read_text())
        if case == "huge duration":
            raw_waypoints[0]["duration"] = 10**400
        waypoints = tmp_path / "wps.json"
        waypoints.write_text('[{"pose": ' if case == "waypoints" else json.dumps(raw_waypoints))
        q0 = {"q0": ["--q0", "a,b,c,d,e,f"], "NaN q0": ["--q0", "nan,0,0,0,0,0"]}.get(case, [])
        code = main(["plan", str(chain), str(waypoints)] + q0)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_an_output_path_that_is_a_directory_is_an_input_error(self, tmp_path, capsys):
        code = main(["plan", CHAIN, WAYPOINTS, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_degree_below_minimum_is_an_input_error(self, capsys):
        code = main(["plan", CHAIN, WAYPOINTS, "--degree", "3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: polynomial degree must be >= 4")

    def test_rank_deficient_problem_is_an_input_error(self, tmp_path, capsys):
        # one segment of degree 4 has 5 coefficients for 6 boundary rows
        one = tmp_path / "one.json"
        one.write_text(json.dumps(json.loads(Path(WAYPOINTS).read_text())[:1]))
        code = main(["plan", CHAIN, str(one), "--degree", "4"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: equality constraints are rank-deficient")


class TestSimCommand:
    def test_draw_circle_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        log = tmp_path / "log.csv"
        code = main([
            "sim", str(data_path("scenarios", "draw-circle.json")),
            "--out", str(log), "--report", str(report),
        ])
        assert code == 0
        summary = json.loads(report.read_text())
        assert max(summary["max_junction_residual"]) <= 1e-6
        assert summary["limit_violation_ticks"] == 0
        assert log.read_text().count("\n") == summary["ticks"] + 1

    def test_log_cells_are_plain_numbers(self, tmp_path, capsys, draw_line_result):
        log = tmp_path / "log.csv"
        assert main(["sim", str(data_path("scenarios", "draw-line.json")), "--out", str(log)]) == 0
        header, *rows = [line.split(",") for line in log.read_text().splitlines()]
        assert header[-1] == "request" and len(rows) == draw_line_result.summary["ticks"]
        for row, rec in zip(rows, draw_line_result.session.telemetry):
            values = [float(cell) for cell in row[:-1]]  # "np.float64(...)" would not parse
            assert values[0] == rec.t and values[1] == rec.reference.q[0]

    def test_scenario_failure_exits_nonzero(self, tmp_path, capsys):
        script = {
            "name": "bad",
            "chain": "arm6.json",
            "q0": [0, 0.4, -1.0, 0, 0.4, 0],
            "events": [{
                "t": 0.0, "action": "send_request",
                "request": {"id": "r", "robot": "sim", "type": "rt-move-cartesian",
                            "waypoints": [{"pose": [9, 0, 0, 0, 0, 0], "duration": 0.5}]},
            }],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(script))
        code = main(["sim", str(path)])
        assert code != 0
        assert "rejected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw.pop("chain"), "missing 'chain'"),
            (lambda raw: raw.pop("q0"), "missing 'q0'"),
            (lambda raw: raw.update(events={"t": 0.0}), "'events' must be a list"),
            (lambda raw: raw["events"][0].update(request="line-1"), "request that is not an object"),
            (lambda raw: raw["events"][0].update(t=float("inf")), "event 0 must be an object with a finite 't'"),
            # an event at NaN would never run: an assert nothing checks
            (lambda raw: raw["events"].append({"t": float("nan"), "action": "assert", "check": "?"}), "finite 't'"),
            (lambda raw: raw.update(settle_time=float("nan")), "'settle_time' must be finite and >= 0"),
            (lambda raw: raw.update(settle_time=-0.5), "'settle_time' must be finite and >= 0"),
            # a JSON integer too large for a float
            (lambda raw: raw.update(settle_time=10**400), "'settle_time' must be finite and >= 0"),
            (lambda raw: raw["events"][0].update(t=10**400), "event 0 must be an object with a finite 't'"),
            (
                lambda raw: raw["events"][0]["request"]["waypoints"][0].update(duration=10**400),
                "validation: waypoint 0: int too large to convert to float",
            ),
        ],
        ids=[
            "no chain", "no q0", "events not a list", "request not an object",
            "infinite t", "NaN t", "NaN settle_time", "negative settle_time",
            "400-digit settle_time", "400-digit t", "400-digit duration",
        ],
    )
    def test_malformed_scenario_is_an_input_error(self, tmp_path, capsys, edit, message):
        raw = json.loads(data_path("scenarios", "draw-line.json").read_text())
        edit(raw)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match=message):
            run_scenario(path)
        assert main(["sim", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_missing_scenario_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sim", "no-such-scenario.json"]) == 2
        assert capsys.readouterr().err == "error: cannot resolve scenarios file 'no-such-scenario.json'\n"


class TestServeCommand:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--port", "70000"], "--port 70000 is not in 0-65535"),
            (["--port", "-1"], "--port -1 is not in 0-65535"),
            # a TEST-NET-1 address no interface holds: the bind fails, with no lookup
            (["--host", "192.0.2.1", "--port", "0"], "error: "),
        ],
        ids=["port above 65535", "negative port", "address not to bind"],
    )
    def test_bad_address_is_an_input_error(self, capsys, args, message):
        assert main(["serve", CHAIN] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_non_finite_q0_is_an_input_error(self, capsys, monkeypatch):
        def interrupt(seconds):
            raise KeyboardInterrupt

        # the session refuses it before the service binds or ticks; a service
        # that started anyway stops at its first wait and fails the exit code
        monkeypatch.setattr(cli, "time", SimpleNamespace(sleep=interrupt))
        assert main(["serve", CHAIN, "--port", "0", "--q0", "nan,0,0,0,0,0"]) == 2
        assert capsys.readouterr().err == "error: q0 must hold 6 finite joint values\n"


class TestBenchCommand:
    def test_jsonl_records(self, tmp_path, capsys):
        out = tmp_path / "bench.jsonl"
        code = main(["bench", "--samples", "8", "--seed", "3", "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 8
        for record in records:
            assert record["status"] == "solved"
            assert set(record) == {"n", "L", "joints", "solve_time_s", "iterations", "status"}
            assert record["n"] == 5 and record["L"] == 5 and record["joints"] == 6

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["bench", "--samples", "3", "--seed", "11", "--out", str(a)])
        main(["bench", "--samples", "3", "--seed", "11", "--out", str(b)])
        ra = [json.loads(l)["iterations"] for l in a.read_text().splitlines()]
        rb = [json.loads(l)["iterations"] for l in b.read_text().splitlines()]
        assert ra == rb

    @pytest.mark.parametrize(
        "args",
        [
            ["--L", "3"],
            ["--n", "0"],
            ["--n", "-1"],
            ["--n", "1", "--L", "4"],
            ["--samples", "0"],
            ["--joints", "0"],
            ["--duration", "nan"],
            ["--fc", "nan"],
            ["--vmax", "nan"],
        ],
        ids=" ".join,
    )
    def test_bad_arguments_are_input_errors(self, capsys, args):
        code = main(["bench", "--samples", "2", *args])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
