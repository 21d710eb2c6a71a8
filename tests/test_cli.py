import json
import subprocess
import sys

import pytest

from scmas.cli import main
from scmas.game import game_to_dict
from conftest import six_action_game


def run_cli(args):
    return main(args)


def test_generate_synthetic_round_trip(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run_cli(["generate", "synthetic", "appendix_d_coordination",
                    "--seed", "1", "--out", str(out)]) == 0
    first = out.read_text()
    from scmas.game import game_from_dict, game_to_dict
    game = game_from_dict(json.loads(first))
    assert json.dumps(game_to_dict(game), indent=2) + "\n" == first


def test_generate_random_echoes_params(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["generate", "random", "--nxl", "3", "--nxf", "3",
                    "--topology", "fork", "--quality", "0.8", "--seed", "7",
                    "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]["generator"]
    assert meta["topology"] == "fork"
    assert meta["nxl"] == 3 and meta["nxf"] == 3
    assert meta["instinct_quality"] == 0.8
    assert meta["seed"] == 7


def test_unknown_topology_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["generate", "random", "--topology", "moebius"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "fork" in err and "confounded" in err  # lists the valid kinds


def test_solve_exact_on_coordination(tmp_path, capsys):
    out = tmp_path / "g.json"
    run_cli(["generate", "synthetic", "appendix_d_coordination", "--out", str(out)])
    assert run_cli(["solve", str(out), "--method", "exact"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["leader"] == {"layer": "L2", "action": 0}
    assert abs(payload["welfare"] - 30.0) < 1e-9
    assert payload["method"] == {"kind": "exact"}


def test_solve_approx_reproducible(tmp_path, capsys):
    out = tmp_path / "g.json"
    run_cli(["generate", "random", "--seed", "3", "--out", str(out)])
    run_cli(["solve", str(out), "--method", "approx", "--epsilon", "0.01",
             "--seed", "3"])
    first = capsys.readouterr().out
    run_cli(["solve", str(out), "--method", "approx", "--epsilon", "0.01",
             "--seed", "3"])
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["method"]["kind"] == "approx"


def test_solve_satisficing_emits_mixture(tmp_path, capsys):
    out = tmp_path / "g.json"
    run_cli(["generate", "synthetic", "appendix_d_coordination", "--out", str(out)])
    run_cli(["solve", str(out), "--method", "satisficing", "--eps-sat", "15"])
    payload = json.loads(capsys.readouterr().out)
    entry = next(e for e in payload["follower"]
                 if e["observation"]["action_signal"] == 0)
    assert entry["response"]["mixture"] == pytest.approx([1 / 3] * 3)


def test_solve_exact_refuses_too_many_leader_maps(tmp_path, capsys):
    out = tmp_path / "g.json"
    out.write_text(json.dumps(game_to_dict(six_action_game())))
    assert run_cli(["solve", str(out), "--method", "exact"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "7776 leader L3 maps" in captured.err
    assert "L3_ENUM_LIMIT=4096" in captured.err
    assert run_cli(["solve", str(out), "--method", "classical"]) == 0


def test_solve_missing_file_exits_1(capsys):
    assert run_cli(["solve", "/nonexistent/game.json"]) == 1


def test_experiment_stdout_json(capsys):
    assert run_cli(["experiment", "--suite", "procurement", "--n", "2",
                    "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aggregate"]["cost_savings_delta"] == 0.0
    assert payload["aggregate"]["compliance_rate_scne"] == 1.0


def test_experiment_writes_files(tmp_path):
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    assert run_cli(["experiment", "--suite", "monte_carlo", "--n", "3",
                    "--seed", "2", "--csv", str(csv_path),
                    "--json", str(json_path)]) == 0
    assert csv_path.read_text().startswith("instance_id,seed,topology")
    payload = json.loads(json_path.read_text())
    assert payload["aggregate"]["improvement_rate"] == 0.0


def test_qbf_verify_and_exhaustive(tmp_path, capsys):
    f = tmp_path / "f.qdimacs"
    f.write_text("p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n")
    assert run_cli(["qbf", "--verify", str(f)]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out
    assert run_cli(["qbf", "--exhaustive", "1"]) == 0
    assert "121/121" in capsys.readouterr().out


def test_qbf_malformed_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.qdimacs"
    f.write_text("e 1 0\na 2 0\n1 5 0\n")
    assert run_cli(["qbf", "--verify", str(f)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_bench_subcommand(capsys):
    assert run_cli(["bench", "--sizes", "2", "--epsilon", "0.5", "--seed", "1",
                    "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["size"] == 2


@pytest.mark.parametrize("argv", [
    ["solve", "game.json", "--method", "approx", "--epsilon", "0"],
    ["solve", "game.json", "--method", "satisficing", "--eps-sat", "-1"],
    ["experiment", "--suite", "monte_carlo", "--n", "0"],
    ["experiment", "--suite", "procurement", "--n", "3"],
    ["experiment", "--suite", "synthetic", "--seeds", "0"],
    ["bench", "--sizes", "1"],
    ["bench", "--n", "0", "--sizes", "2"],
])
def test_invalid_flag_values_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "scmas.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for sub in ("generate", "solve", "experiment", "bench", "qbf"):
        assert sub in proc.stdout
