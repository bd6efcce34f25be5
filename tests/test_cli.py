import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affinewalks
from affinewalks import acceptance
from affinewalks.harness import run_cli


def test_algebra_command(capsys):
    assert run_cli(["algebra", "--algebra", "A1~"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["marks"] == [1, 1]
    assert out["dual_coxeter"] == 2


def test_mult_command(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    code = run_cli(["mult", "--algebra", "A1~", "--pairings", "1,0",
                    "--depth", "6", "--csv", str(csv_path)])
    assert code == 0
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "depth,m1,mult"


def test_tensor_command(capsys):
    assert run_cli(["tensor", "--algebra", "A1~", "--pairings", "2,0",
                    "--n", "2", "--depth", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entries"] > 0


def test_characters_commands(capsys):
    assert run_cli(["characters", "eval", "--algebra", "A1~",
                    "--pairings", "1,0", "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] > 0 and out["tail_bound"] >= 0 and out["depth"] > 0

    assert run_cli(["characters", "denominator", "--algebra", "A1~",
                    "--n", "5", "--depth", "15"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residual"] < 1e-8

    assert run_cli(["characters", "theta", "--algebra", "A1~",
                    "--pairings", "2,1", "--n", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] > 0


def test_characters_eval_near_critical_line(capsys):
    # certified where both alternants sit far below float64: A1~ rho/800
    # (log ch = 657.6) and A2~ rho/500 (547.8)
    for algebra, pairings, n in (("A1~", "1,0", "800"), ("A2~", "1,0,0", "500")):
        assert run_cli(["characters", "eval", "--algebra", algebra, "--pairings",
                        pairings, "--n", n, "--eps", "1e-12"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0 <= out["tail_bound"] <= 1e-12 * out["value"]
    # a value past float64's range (log ch = 822 at rho/1000) is refused
    assert run_cli(["characters", "eval", "--n", "1000", "--eps", "1e-12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "float range" in err \
        and err.count("\n") == 1


def test_chain_simulate_requires_seed(tmp_path, capsys):
    code = run_cli(["chain", "simulate", "--algebra", "A1~", "--n", "3",
                    "--steps", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_chain_simulate_reproducible(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code = run_cli(["chain", "simulate", "--algebra", "A1~", "--n", "3",
                        "--steps", "3", "--seed", "11", "--depth", "40",
                        "--out", str(out)])
        assert code == 0
    assert out1.read_text() == out2.read_text()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("step,level,z1")


def test_diffusion_sample(tmp_path, capsys):
    out = tmp_path / "paths.csv"
    code = run_cli(["diffusion", "sample", "--algebra", "A1~",
                    "--horizon", "0.05", "--dt", "0.01", "--paths", "2",
                    "--seed", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "path,t,s,z1"
    assert len(lines) == 1 + 2 * 6


def test_diffusion_sample_requires_seed(tmp_path):
    assert run_cli(["diffusion", "sample", "--algebra", "A1~",
                    "--out", str(tmp_path / "p.csv")]) == 2


def test_diffusion_survival(capsys):
    assert run_cli(["diffusion", "survival", "--algebra", "A1~",
                    "--scale", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0 < out["value"] <= 1
    assert 0 <= out["bound"] <= 1e-12


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["algebra", "--bogus"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_experiment_walk_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["experiment", "walk", "--seed", "9", "--n", "30",
                    "--samples", "1500", "--out", str(out)])
    assert code in (0, 1)          # smoke scale: pass not asserted
    report = json.loads(out.read_text())
    assert report["kind"] == "walk-scaling"
    assert report["per_time"]


def test_experiment_csv_without_out(tmp_path, capsys):
    table = tmp_path / "per_time.csv"
    code = run_cli(["experiment", "walk", "--seed", "9", "--n", "30",
                    "--samples", "1500", "--csv", str(table)])
    assert code in (0, 1)
    report = json.loads(capsys.readouterr().out)
    rows = table.read_text().splitlines()
    assert len(rows) == 1 + len(report["per_time"])
    assert rows[0].split(",") == sorted(report["per_time"][0])


def test_experiment_config_file_matches_flags(tmp_path):
    from affinewalks.harness import ExperimentConfig
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(ExperimentConfig(seed=9, time_grid=(1.0,)).to_json())
    reports = []
    for extra in (["--seed", "9"], ["--config", str(cfg_path)]):
        out = tmp_path / "report.json"
        run_cli(["experiment", "walk", "--n", "30", "--samples", "1500",
                 "--out", str(out)] + extra)
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1]


def test_experiment_walk_honours_config_scale(tmp_path):
    # the config's spec_n and samples run and are reported; flags override
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"spec_n": 30, "samples": 800, "seed": 9}))
    out = tmp_path / "report.json"
    run_cli(["experiment", "walk", "--config", str(cfg_path), "--out", str(out)])
    notes = json.loads(out.read_text())["notes"]
    assert (notes["n"], notes["samples"]) == (30, 800)
    run_cli(["experiment", "walk", "--config", str(cfg_path), "--samples", "500",
             "--out", str(out)])
    assert json.loads(out.read_text())["notes"]["samples"] == 500


def test_experiment_config_unknown_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 9, "max_abort_fraction": 0.01}))
    assert run_cli(["experiment", "chain", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "max_abort_fraction" in err


@pytest.mark.parametrize("depth,code", [(80, 0), (40, 1)])
def test_chain_verify_reflection(depth, code, capsys):
    assert run_cli(["chain", "verify-reflection", "--n", "3", "--steps", "1",
                    "--depth", str(depth)]) == code
    out = json.loads(capsys.readouterr().out)
    assert out["steps"] == 1
    assert [c["beta0"] for c in out["cases"]] == [["0"], ["1"]]
    assert out["worst"] == max(c["residual"] for c in out["cases"])
    if code == 0:
        assert out["worst"] < 1e-13
    else:                      # depth 40 truncates above the tolerance
        assert out["worst"] == pytest.approx(2.5145e-7, rel=1e-4)


@pytest.mark.parametrize("action,check", [
    ("verify-wonpt", acceptance.check_wonpt),
    ("verify-reflection", acceptance.check_continuous_reflection),
    ("verify-harmonic", acceptance.check_harmonicity)])
def test_diffusion_verify_runs_criterion(action, check, capsys):
    assert run_cli(["diffusion", action, "--algebra", "A1~"]) == 0
    line = capsys.readouterr().out
    passed, detail = check()
    assert passed
    assert line.startswith("PASS") and f": {detail} (" in line


def test_diffusion_verify_wonpt_a2(capsys):
    assert run_cli(["diffusion", "verify-wonpt", "--algebra", "A2~"]) == 0
    assert capsys.readouterr().out.startswith("PASS  [ 6]")


def test_diffusion_verify_crash_is_fail_line(monkeypatch, capsys):
    def broken(fast=False, alg=None):
        raise RuntimeError("boom")
    checks = [(n, name, broken if n == 8 else fn)
              for n, name, fn in acceptance.CHECKS]
    monkeypatch.setattr(acceptance, "CHECKS", checks)
    assert run_cli(["diffusion", "verify-harmonic"]) == 1
    assert capsys.readouterr().out.startswith(
        "FAIL  [ 8] harmonicity of the chamber factors: RuntimeError: boom")


def test_diffusion_verify_refuses_seed(capsys):
    assert run_cli(["diffusion", "verify-wonpt", "--seed", "7"]) == 2
    assert "--seed does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("l", [7, 8])
def test_weyl_group_past_the_cap_exits_2(affine_e, l, tmp_path):
    # E7~ and E8~ are refused from the group order at once; a run that
    # enumerates instead hits the timeout, not the job limit
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"rank": l, "matrix": affine_e(l)}))
    env = dict(os.environ, PYTHONPATH=str(Path(affinewalks.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "affinewalks", "characters", "eval", "--json",
         str(path), "--pairings", ",".join(["1"] + ["0"] * l)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "exceeds the cap" in proc.stderr


def test_verify_all_refuses_other_algebras():
    env = dict(os.environ, PYTHONPATH=str(Path(affinewalks.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "affinewalks", "verify-all", "--algebra", "A2~"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv,config", [
    (["experiment", "chain"], {"algebra": "A2~", "samples": 200, "spec_n": 3}),
    (["experiment", "walk"], {"algebra": "E6~"}),
    (["algebra", "--algebra", "E6~"], None),
    (["mult", "--algebra", "A2~", "--pairings", "1,0"], None),
    (["tensor", "--pairings", "1,x"], None),
    (["mult", "--pairings", "1,-1"], None),
    (["tensor", "--pairings", "1,-1"], None),
    (["characters", "eval", "--pairings", "1,-1"], None),
    (["characters", "denominator", "--depth", "400"], None),
    (["experiment", "chain", "--seed", "1"], {"dt": 0, "samples": 50, "spec_n": 5}),
    (["experiment", "chain", "--seed", "1"], {"dt": -0.01, "samples": 50, "spec_n": 5}),
    (["experiment", "walk"], {"seed": -1, "samples": 10, "spec_n": 5}),
    (["experiment", "walk"], [1]),
    (["experiment", "walk"], {"time_grid": [float("nan")]}),
    (["experiment", "walk"], {"time_grid": [float("inf")]})])
def test_bad_input_exits_2(argv, config, tmp_path, capsys):
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg_path)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("config", [
    {"seed": "a"}, {"seed": True}, {"seed": 1.5}, {"dt": "x"}, {"dt": False},
    {"samples": "5"}, {"samples": True}, {"spec_n": "5"}, {"spec_n": 5.0},
    {"time_grid": ["a"]}, {"time_grid": [True]}, {"time_grid": 1.0},
    {"algebra": 5}, {"start_pairings": 3}, {"out": 5}])
def test_config_field_of_wrong_type_exits_2(config, tmp_path, capsys):
    # a config's value of the wrong JSON type is refused with its field's
    # name, never compared or used (a bool is an int in Python)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(["experiment", "walk", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert next(iter(config)) in err


def test_experiment_walk_a2_needs_no_start_pairings(tmp_path):
    # the walk does not read start_pairings, so the rank-1 default stays valid
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"algebra": "A2~", "seed": 9}))
    out = tmp_path / "report.json"
    code = run_cli(["experiment", "walk", "--n", "30", "--samples", "500",
                    "--config", str(cfg_path), "--out", str(out)])
    assert code in (0, 1)          # smoke scale: pass not asserted
    assert json.loads(out.read_text())["kind"] == "walk-scaling"


@pytest.mark.parametrize("argv,text", [
    (["algebra", "--algebra", "A0~"], None),
    (["algebra", "--json", "missing.json"], None),
    (["algebra", "--json", "bad.json"], '{"rank": 2, "matrix": [[2,-1,0],'),
    (["algebra", "--json", "bad.json"],         # twisted: marks (1, 2, 2)
     '{"rank": 2, "matrix": [[2,-1,0],[-2,2,-1],[0,-2,2]]}'),
    (["diffusion", "survival", "--scale", "0"], None),
    (["diffusion", "survival", "--scale", "abc"], None),
    (["diffusion", "sample", "--dt", "0", "--seed", "1"], None),
    (["chain", "simulate", "--n", "0", "--seed", "1"], None),
    (["characters", "theta", "--pairings", "0,0"], None),
    (["tensor", "--n", "-1", "--pairings", "1,0"], None),
    (["mult", "--depth", "-1", "--pairings", "1,0"], None),
    (["experiment", "walk", "--samples", "-5", "--seed", "1"], None),
    (["experiment", "walk", "--seed", "1", "--n", "0", "--samples", "0"], None),
    (["experiment", "walk", "--seed", "-1", "--n", "5", "--samples", "10"], None),
    (["chain", "simulate", "--n", "3", "--seed", "-5"], None),
    (["diffusion", "sample", "--seed", "-5"], None)])
def test_bad_algebra_or_number_exits_2(argv, text, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / argv[-1]).write_text(text)
    try:
        code = run_cli(argv)
    except SystemExit as exc:       # argparse refused a value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1
