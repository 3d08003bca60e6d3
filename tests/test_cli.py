import csv
import importlib
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import saddleloop
from saddleloop import cli
from saddleloop.cli import main
from saddleloop.flowsim import CycleCensus
from saddleloop.model import Annulus, Family, HamiltonianSpec
from saddleloop.ovals import section_segment


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_abelian_row_count_and_manifest(tmp_path, capsys):
    out = tmp_path / "ab.csv"
    code, stdout, _ = run(["abelian", "--a", "1",
                           "--t-grid=-1.9:-1e-4:50", "--out", str(out)], capsys)
    assert code == 0
    assert str(out) in stdout
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "j_minus1", "j0", "j1",
                       "err_minus1", "err0", "err1", "converged"]
    assert len(rows) == 51
    man = json.loads((tmp_path / "ab.csv.manifest.json").read_text())
    assert man["config"]["a"] == 1.0
    assert man["config"]["t_grid"] == "-1.9:-1e-4:50"
    assert man["artifacts"] == [str(out)]
    assert man["wall_time_s"] >= 0.0
    assert not man["degraded"]
    assert "version" in man


def test_abelian_unconverged_rows_flagged(tmp_path, capsys, monkeypatch):
    # one panel per lane: the rows off the center side do not converge,
    # and each reaches the csv, the manifest flags and the exit code
    monkeypatch.setattr(cli.abelian, "QUAD_LIMIT", 1)
    out = tmp_path / "ab.csv"
    code, _, _ = run(["abelian", "--a", "1", "--t-grid=-1.9:-1e-4:4",
                      "--out", str(out)], capsys)
    assert code == 3
    rows = list(csv.reader(out.open()))[1:]
    assert [r[-1] for r in rows] == ["1", "0", "0", "0"]
    man = json.loads((tmp_path / "ab.csv.manifest.json").read_text())
    assert man["flags"] == [f"row t={t} not converged"
                            for t in ("-1.2667", "-0.6334", "-0.0001")]


def test_appendix_unconverged_rows_flagged(tmp_path, capsys, monkeypatch):
    # as for the normal family: the csv is written, each unconverged row
    # is flagged and the run exits 3
    monkeypatch.setattr(cli.abelian, "QUAD_LIMIT", 1)
    out = tmp_path / "m.csv"
    code, _, _ = run(["melnikov", "--family", "appendix", "--mu2", "0.657",
                      "--h-grid=-1.3:-0.01:4", "--out", str(out)], capsys)
    assert code == 3
    assert len(list(csv.reader(out.open()))) == 5
    man = json.loads((tmp_path / "m.csv.manifest.json").read_text())
    assert man["flags"] == [f"row h={h} not converged"
                            for h in ("-0.87", "-0.44", "-0.01")]


def test_space_separated_negative_grid(tmp_path, capsys):
    # argparse alone rejects a leading-dash value; the wrapper merges it
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code1, _, _ = run(["abelian", "--a", "1", "--t-grid", "-1.0:-0.5:5",
                       "--out", str(a)], capsys)
    code2, _, _ = run(["abelian", "--a", "1", "--t-grid=-1.0:-0.5:5",
                       "--out", str(b)], capsys)
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()


def test_reruns_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(["centroid", "--a", "1", "--annulus", "plus",
                          "--n", "12", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_pf_json_payload(tmp_path, capsys):
    out = tmp_path / "pf.json"
    code, _, _ = run(["pf", "--a", "0.5", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    for key in ("a", "A1", "A0", "B", "log_coefficient", "p_const",
                "p_lin", "q"):
        assert key in doc, key
    assert doc["a"] == 0.5
    assert len(doc["A1"]) == 3 and len(doc["A1"][0]) == 3


@pytest.mark.parametrize("a", ["2.5", "4", "2", "1e-13"])
def test_pf_names_the_rejected_a(tmp_path, capsys, a):
    # beyond a = 2 the saddles are complex and the log multiplier is not
    # real; a = 0 and a = 2 degenerate the series.  The error names the
    # given a, and no artifact is written
    out = tmp_path / "pf.json"
    code, _, err = run(["pf", "--a", a, "--out", str(out)], capsys)
    assert code == 2
    assert f"not defined at a={float(a)}:" in err
    assert not out.exists()


def test_melnikov_both_families(tmp_path, capsys):
    out1 = tmp_path / "mel_app.csv"
    code, _, _ = run(["melnikov", "--family", "appendix", "--mu2", "0.01",
                      "--h-grid=-1.0:-0.1:4", "--out", str(out1)], capsys)
    assert code == 0
    rows = list(csv.reader(out1.open()))
    assert rows[0] == ["h", "value"] and len(rows) == 5
    man = json.loads((tmp_path / "mel_app.csv.manifest.json").read_text())
    assert set(man["config"]) == {"family", "mu2", "h_grid", "tol"}

    out2 = tmp_path / "mel_nf.csv"
    code, _, _ = run(["melnikov", "--family", "normal", "--a", "1",
                      "--alpha", "0.3", "--beta", "-0.2",
                      "--t-grid=-1.5:-0.1:4", "--out", str(out2)], capsys)
    assert code == 0
    rows = list(csv.reader(out2.open()))
    assert rows[0][:2] == ["t", "value"] and len(rows) == 5
    man = json.loads((tmp_path / "mel_nf.csv.manifest.json").read_text())
    assert set(man["config"]) == {"family", "a", "annulus", "alpha", "beta",
                                  "gamma", "t_grid", "tol"}


def test_melnikov_validation(tmp_path, capsys):
    code, _, err = run(["melnikov", "--family", "appendix", "--mu2", "0.01",
                        "--h-grid=-2.0:-0.1:4",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "(-4/3, 0)" in err

    # the appendix family reads no --a: the parser rejects it
    out = tmp_path / "y.csv"
    err = _parse_error(["melnikov", "--family", "appendix", "--a", "1",
                        "--mu2", "0.0", "--h-grid=-1:-0.1:3",
                        "--out", str(out)], capsys)
    assert err.endswith("error: unrecognized arguments: --a 1")
    assert not out.exists()


def test_sim_traj_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, _ = run(["sim", "--family", "normal", "--a", "1", "--eps", "0",
                      "--traj", "--start", "1.0,0.5", "--T", "5",
                      "--out", str(out)], capsys)
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "x", "y", "H"]
    assert len(rows) > 10
    h0 = float(rows[1][3])
    assert all(abs(float(r[3]) - h0) < 1e-7 for r in rows[1:])
    man = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert set(man["config"]) == {"family", "a", "eps", "traj", "start", "T",
                                  "tol"}


def test_sim_traj_failed_run_is_flagged(tmp_path, capsys):
    # xdot = 5*eps*x^2 + ... blows up in finite time: the run stops where
    # the step size underflows, and the command says so
    out = tmp_path / "traj.csv"
    code, _, _ = run(["sim", "--family", "normal", "--a", "1",
                      "--eps", "1", "--g", "0,0,0,5,0,0", "--traj",
                      "--start", "3,0", "--T", "10", "--out", str(out)],
                     capsys)
    assert code == 3
    rows = list(csv.reader(out.open()))
    assert f"{float(rows[-1][0]):.4f}" == "0.0810"
    man = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert man["flags"] == ["integration failed before reaching T"]


def test_sim_negative_eps_value(tmp_path, capsys):
    # "-1e-3" does not look like a number to argparse; the wrapper merges it
    out = tmp_path / "traj.csv"
    code, _, err = run(["sim", "--family", "normal", "--a", "1",
                        "--eps", "-1e-3", "--traj", "--start", "1.5,0.2",
                        "--T", "5", "--out", str(out)], capsys)
    assert code == 0, err
    man = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert man["config"]["eps"] == -1e-3


def test_sim_census_json(tmp_path, capsys):
    out = tmp_path / "census.json"
    code, _, _ = run(["sim", "--family", "normal", "--a", "1",
                      "--eps", "0.001",
                      "--f", "0.3,-0.1,0.2,0.05,-0.4,0.15",
                      "--g", "-0.2,0.1,0.3,-0.25,0.05,-0.1",
                      "--census", "--n", "100", "--T", "60",
                      "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["family"] == "normal"
    assert doc["epsilon"] == 0.001
    assert doc["grid_size"] == 100
    # the default window: the section span shrunk by 1e-3 of it each side
    lo, hi = section_segment(HamiltonianSpec(family=Family.NORMAL_FORM,
                                             a=1.0), Annulus.SIGMA_PLUS).s_bounds()
    span = hi - lo
    assert doc["window"] == [lo + 1e-3 * span, hi - 1e-3 * span]
    assert sum(doc["outcomes"].values()) == 100
    assert doc["no_return_count"] >= 100 - doc["outcomes"].get("ok", 0)
    assert isinstance(doc["cycles"], list)
    for c in doc["cycles"]:
        assert set(c) == {"section_coordinate", "energy", "stability",
                          "return_derivative"}
    man = json.loads((tmp_path / "census.json.manifest.json").read_text())
    assert set(man["config"]) == {"family", "a", "eps", "f", "g", "census",
                                  "annulus", "n", "T", "tol"}


def test_sim_census_zero_one_form_degenerate(tmp_path, capsys):
    # no --f/--g: the one-form is zero, so eps leaves the flow Hamiltonian
    out = tmp_path / "census.json"
    code, _, _ = run(["sim", "--family", "normal", "--a", "1",
                      "--eps", "1e-3", "--census", "--T", "60",
                      "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["degenerate_continuum"] is True
    assert doc["cycles"] == [] and doc["outcomes"] == {}


def test_sim_census_without_returns_flagged(tmp_path, capsys):
    # T = 1 is too short for any orbit to come back to the section: the
    # census writes its empty scan, and the flag names the outcomes
    out = tmp_path / "census.json"
    code, _, _ = run(["sim", "--family", "normal", "--a", "1",
                      "--eps", "1e-3", "--f", "0,0,1,0,0,0", "--census",
                      "--n", "100", "--T", "1", "--out", str(out)], capsys)
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["outcomes"] == {"timeout": 100} and doc["cycles"] == []
    man = json.loads((tmp_path / "census.json.manifest.json").read_text())
    assert man["flags"] == ["no census lane returned: 100 timeout"]


def test_sim_census_witness_replay(tmp_path, capsys):
    # the README witness command
    out = tmp_path / "census.json"
    code, _, _ = run(["sim", "--family", "appendix", "--c", "60",
                      "--eps", "3.6e-3", "--mu1", "0.352", "--mu2", "0.657",
                      "--census", "--window", "1.15e-3,4.0e-3", "--n", "160",
                      "--T", "80", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["window"] == [1.15e-3, 4.0e-3]
    assert doc["outcomes"] == {"ok": 155, "left_annulus": 5}
    assert doc["no_return_count"] == 5
    # two cells: one batch of their 18-point sub-grids, the repeller's and
    # the attractor's Hermite starts, then one Newton step for the
    # repeller, whose start lies outside the root tolerance
    assert (doc["refine_rounds"], doc["refine_lanes"]) == (3, 39)
    assert doc["unresolved_cells"] == 0
    assert [c["stability"] for c in doc["cycles"]] == ["repelling",
                                                       "attracting"]
    man = json.loads((tmp_path / "census.json.manifest.json").read_text())
    assert set(man["config"]) == {"family", "c", "eps", "mu1", "mu2",
                                  "census", "annulus", "window", "n", "T",
                                  "tol"}


def test_sim_census_flags_a_cell_that_lost_a_lane(tmp_path, capsys,
                                                  monkeypatch):
    # refinement lanes near the repeller do not return, so its cell
    # yields no cycle: the census says so, and the run exits 3
    from saddleloop import flowsim

    refine = flowsim._returns_and_slopes

    def lossy(flow, sect, s, T_max):
        s_ret, slopes = refine(flow, sect, s, T_max)
        return np.where(abs(s - 1.2411e-3) > 1.2e-6, s_ret, np.nan), slopes

    monkeypatch.setattr(flowsim, "_returns_and_slopes", lossy)
    out = tmp_path / "census.json"
    code, _, _ = run(["sim", "--family", "appendix", "--c", "60",
                      "--eps", "3.6e-3", "--mu1", "0.352", "--mu2", "0.657",
                      "--census", "--window", "1.15e-3,4.0e-3", "--n", "160",
                      "--T", "80", "--out", str(out)], capsys)
    assert code == 3
    doc = json.loads(out.read_text())
    assert [c["stability"] for c in doc["cycles"]] == ["attracting"]
    assert doc["unresolved_cells"] == 1 and doc["no_return_count"] == 6
    man = json.loads((tmp_path / "census.json.manifest.json").read_text())
    assert man["flags"] == ["1 sign-change cells lost a refinement lane: "
                            "a cycle there may be missing"]


@pytest.mark.parametrize("argv, outcome", [
    (["--eps", "1e300"], "failed"),
    (["--eps", "0.5", "--mu1", "3", "--mu2", "1"], "timeout"),
], ids=["eps-overflow", "finite-flow"])
def test_sim_census_unmeasured_shifts_flagged(tmp_path, capsys, argv,
                                              outcome):
    # the separatrices miss the transversal (failed, timed out): the
    # census still writes its scan, without shifts, and the flag names
    # what is missing and why
    out = tmp_path / "census.json"
    code, _, _ = run(["sim", "--family", "appendix", "--census", "--n", "100",
                      "--out", str(out)] + argv, capsys)
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["outcomes"] == {outcome: 100}
    assert "shifts" not in doc and set(doc["traces"]) == {"sigma1", "sigma2"}
    man = json.loads((tmp_path / "census.json.manifest.json").read_text())
    assert (f"shifts not measured: separatrix did not reach the transversal "
            f"({outcome})") in man["flags"]


@pytest.mark.parametrize("window", ["0.002,0.002", "0.004,0.00115"],
                         ids=["one-point", "reversed"])
def test_sim_census_window_must_increase(tmp_path, capsys, window):
    out = tmp_path / "census.json"
    code, _, err = run(["sim", "--family", "appendix", "--eps", "3.6e-3",
                        "--census", "--window", window, "--n", "160",
                        "--out", str(out)], capsys)
    assert code == 2
    assert "must be increasing" in err
    assert not out.exists()


def test_sim_requires_exactly_one_mode(tmp_path, capsys):
    out = tmp_path / "x.json"
    base = ["sim", "--family", "normal", "--a", "1", "--eps", "0.001",
            "--out", str(out)]
    err = _parse_error(base, capsys)
    assert err.endswith("error: one of the arguments --census --traj "
                        "is required")
    err = _parse_error(base + ["--census", "--traj"], capsys)
    assert err.endswith("error: argument --traj: not allowed with "
                        "argument --census")
    assert not out.exists()


def test_sim_family_validation(tmp_path, capsys):
    out = tmp_path / "x.json"
    err = _parse_error(["sim", "--family", "appendix", "--a", "1",
                        "--eps", "1e-3", "--census", "--out", str(out)],
                       capsys)
    assert err.endswith("error: unrecognized arguments: --a 1")
    assert not out.exists()


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.5}))
    out = tmp_path / "c.csv"
    code, _, _ = run(["centroid", "--a", "1", "--annulus", "plus",
                      "--n", "8", "--config", str(cfg),
                      "--out", str(out)], capsys)
    assert code == 0
    man = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert man["config"]["a"] == 0.5
    # curve starts at the a=0.5 center energy, t0 = -2.5
    first = next(csv.reader(out.open()))
    rows = list(csv.reader(out.open()))
    assert float(rows[1][0]) == pytest.approx(-2.5, abs=1e-3)


def _parse_error(argv, capsys):
    """The error line of an argv that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.strip().splitlines()[-1]


def test_config_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    out = tmp_path / "c.csv"
    err = _parse_error(["centroid", "--a", "1", "--config", str(cfg),
                        "--out", str(out)], capsys)
    assert err.endswith("error: unrecognized arguments: --bogus=1")
    assert not out.exists()


def test_config_checks_choices(tmp_path, capsys):
    # a misspelt choice is rejected as --annulus plsu would be
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"annulus": "plsu"}))
    out = tmp_path / "ab.csv"
    err = _parse_error(["abelian", "--a", "0.5", "--t-grid=-1.0:-0.5:3",
                        "--config", str(cfg), "--out", str(out)], capsys)
    assert "argument --annulus: invalid choice: 'plsu'" in err
    assert not out.exists()


def test_config_converts_types(tmp_path, capsys, monkeypatch):
    # "100" converts as --n 100 would; "1e2" fails as --n 1e2 would
    seen = {}

    def fake_census(flow, **kwargs):
        seen.update(kwargs, epsilon=flow.epsilon)
        return CycleCensus(cycles=(), saddle_traces=None, shifts=None,
                           degenerate_continuum=False, no_return_count=0,
                           grid_size=kwargs["n"], window=(0.0, 1.0))

    monkeypatch.setattr(cli, "census", fake_census)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "census.json"
    argv = ["sim", "--family", "normal", "--a", "1", "--eps", "0.001",
            "--f", "0.3,0,0,0,0,0", "--census", "--config", str(cfg),
            "--out", str(out)]
    cfg.write_text(json.dumps({"n": "100", "eps": 2e-3}))
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert type(seen["n"]) is int and seen["n"] == 100
    assert seen["epsilon"] == 2e-3
    out.unlink()
    cfg.write_text(json.dumps({"n": "1e2"}))
    err = _parse_error(argv, capsys)
    assert "argument --n: invalid int value: '1e2'" in err
    cfg.write_text(json.dumps({"census": "yes"}))
    err = _parse_error(argv, capsys)
    assert "argument --census: ignored explicit argument 'yes'" in err
    assert not out.exists()


def test_config_keeps_verify_modes_exclusive(tmp_path, capsys):
    # as --criteria 3 --quick is rejected by the parser
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quick": True}))
    out = tmp_path / "v.json"
    err = _parse_error(["verify", "--criteria", "3", "--config", str(cfg),
                        "--out", str(out)], capsys)
    assert "argument --quick: not allowed with argument --criteria" in err
    assert not out.exists()


@pytest.mark.parametrize("field", ["fn", "command", "parser", "eps"])
def test_config_accepts_only_own_flags(tmp_path, capsys, field):
    # fn, command and parser are dispatch attributes, eps a flag of sim
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: 1}))
    out = tmp_path / "c.csv"
    err = _parse_error(["centroid", "--a", "1", "--n", "8",
                        "--config", str(cfg), "--out", str(out)], capsys)
    assert err.endswith(f"error: unrecognized arguments: --{field}=1")
    assert not out.exists()


@pytest.mark.parametrize("argv, key, val, flags", [
    (["centroid", "--a", "1", "--n", "8"], "bogus", 1, ["--bogus=1"]),
    (["abelian", "--a", "0.5", "--t-grid=-1.0:-0.5:3"], "annulus", "plsu",
     ["--annulus=plsu"]),
    (["sim", "--family", "normal", "--a", "1", "--eps", "0.001", "--census"],
     "n", "1e2", ["--n=1e2"]),
    (["sim", "--family", "normal", "--a", "1", "--eps", "0.001", "--traj"],
     "census", "yes", ["--census=yes"]),
    (["verify", "--criteria", "3"], "quick", True, ["--quick"]),
    *((["centroid", "--a", "1", "--n", "8"], name, 1, [f"--{name}=1"])
      for name in ("fn", "command", "parser")),
    (["melnikov", "--family", "appendix", "--mu2", "0.657",
      "--h-grid=-0.1:-0.01:5"], "annulus", "minus", ["--annulus=minus"]),
    (["sim", "--family", "normal", "--a", "1", "--eps", "0", "--traj",
      "--start", "1.0,0.5"], "family", "appendix", ["--family=appendix"]),
], ids=["bogus", "annulus", "n", "census", "quick", "fn", "command", "parser",
        "other-family-flag", "family"])
def test_config_fails_as_its_flag(tmp_path, capsys, argv, key, val, flags):
    # a config value is a flag read after the command line: it fails
    # with the same error line as that flag, before any artifact
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: val}))
    out = tmp_path / "artifact"
    by_config = _parse_error(argv + ["--out", str(out), "--config", str(cfg)],
                             capsys)
    by_flag = _parse_error(argv + ["--out", str(out)] + flags, capsys)
    assert by_config == by_flag
    assert " error: " in by_config
    assert not out.exists()


@pytest.mark.parametrize("argv, config, missing", [
    (["abelian"], {"a": 1, "t_grid": "-1:-0.5:3"}, "a"),
    (["pf"], {"a": 0.5}, "a"),
    (["centroid", "--n", "8"], {"a": 1}, "a"),
    (["sim", "--family", "normal", "--traj", "--start", "1.0,0.5", "--T", "1"],
     {"eps": 0}, "eps"),
], ids=["abelian", "pf", "centroid", "sim"])
def test_required_flags_from_config(tmp_path, capsys, argv, config, missing):
    # a flag its subcommand always requires may come from the config
    # alone, and is required when neither the command line nor the
    # config gives it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "artifact"
    code, _, _ = run(argv + ["--out", str(out), "--config", str(cfg)], capsys)
    assert code == 0 and out.exists()
    man = json.loads((tmp_path / "artifact.manifest.json").read_text())
    assert man["config"][missing] == float(config[missing])
    cfg.write_text(json.dumps({k: v for k, v in config.items()
                               if k != missing}))
    out = tmp_path / "second"
    err = _parse_error(argv + ["--out", str(out), "--config", str(cfg)],
                       capsys)
    assert err.endswith(f"error: the following arguments are required: "
                        f"--{missing}")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("{", "Expecting property name"),
    ("[1]", "top level must be an object"),
    ('{"help": true}', "'help' is not a run setting"),
    ('{"config": "x.json"}', "'config' is not a run setting"),
    ('{"a": false}', "a: expected true, a string or a number, got false"),
    ('{"a": null}', "a: expected true, a string or a number, got null"),
    ('{"a": [1]}', "a: expected true, a string or a number, got [1]"),
    ('{"a": {"b": 1}}', 'a: expected true, a string or a number, '
                        'got {"b": 1}'),
], ids=["bad-json", "not-object", "help", "config", "false", "null", "list",
        "object"])
def test_config_file_errors(tmp_path, capsys, text, message):
    # false has no flag to become: a command line cannot switch off a
    # switch either
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "c.csv"
    code, _, err = run(["centroid", "--a", "1", "--n", "8", "--config",
                        str(cfg), "--out", str(out)], capsys)
    assert code == 2 and f"error: config: {message}" in err
    assert not out.exists()


def test_config_file_unreadable(tmp_path, capsys):
    code, _, err = run(["centroid", "--a", "1", "--config",
                        str(tmp_path / "missing.json")], capsys)
    assert code == 2 and "error: config:" in err and "missing.json" in err


def test_sim_appendix_c_must_exceed_16(tmp_path, capsys):
    code, _, err = run(["sim", "--family", "appendix", "--c", "16",
                        "--eps", "1e-3", "--census",
                        "--out", str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert "requires c > 16, got c=16.0" in err


def test_sim_c_only_on_appendix(tmp_path, capsys):
    # --c is an appendix perturbation coefficient: the normal family
    # rejects it, as it rejects --mu1/--mu2, instead of dropping it
    out = tmp_path / "t.csv"
    err = _parse_error(["sim", "--family", "normal", "--a", "1", "--c", "5",
                        "--eps", "0", "--traj", "--start", "1.0,0.5",
                        "--T", "1", "--out", str(out)], capsys)
    assert err.endswith("error: unrecognized arguments: --c 5")
    assert not out.exists()
    # without --c the appendix family runs and echoes c = 17
    code, _, _ = run(["sim", "--family", "appendix", "--eps", "1e-3",
                      "--traj", "--start", "0.0,1.5", "--T", "1",
                      "--out", str(out)], capsys)
    assert code == 0
    man = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert man["config"]["c"] == 17.0


_TRAJ = ["sim", "--family", "normal", "--a", "1", "--eps", "0", "--traj",
         "--start", "1.0,0.5", "--T", "2"]
_APPENDIX_MELNIKOV = ["melnikov", "--family", "appendix", "--mu2", "0.657",
                      "--h-grid=-0.1:-0.01:5"]


@pytest.mark.parametrize("argv, flag", [
    (_APPENDIX_MELNIKOV, ["--annulus", "minus"]),
    (_APPENDIX_MELNIKOV, ["--t-grid=-1.5:-0.1:4"]),
    (["melnikov", "--family", "normal", "--a", "1", "--alpha", "0.3",
      "--beta", "-0.2", "--t-grid=-1.5:-0.1:4"], ["--h-grid=-0.1:-0.01:5"]),
    (_TRAJ, ["--n", "160"]),
    (_TRAJ, ["--window", "1.1,1.2"]),
    (_TRAJ, ["--annulus", "minus"]),
    (["sim", "--family", "appendix", "--eps", "1e-3", "--census"],
     ["--start", "1.0,0.5"]),
    (_TRAJ, ["--mu2", "0"]),
], ids=["melnikov-appendix-annulus", "melnikov-appendix-t-grid",
        "melnikov-normal-h-grid", "traj-n", "traj-window", "traj-annulus",
        "census-start", "sim-normal-mu2"])
def test_flag_the_run_does_not_read_rejected(tmp_path, capsys, argv, flag):
    # a flag of another family or mode fails in the parser, before any
    # artifact, instead of being dropped
    out = tmp_path / "artifact"
    err = _parse_error(argv + flag + ["--out", str(out)], capsys)
    assert err.endswith("error: unrecognized arguments: " + " ".join(flag))
    assert not out.exists()


def _readme_commands() -> list[list[str]]:
    """The saddleloop command lines of the README's Command line block,
    continuations joined and comments dropped, without the verify
    lines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    argvs = [shlex.split(line, comments=True)[1:]
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("saddleloop ")]
    return [argv for argv in argvs if argv[0] != "verify"]


_README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv", _README_COMMANDS, ids=[
    f"{i}-{argv[0]}" for i, argv in enumerate(_README_COMMANDS)])
def test_readme_command_lines(argv, tmp_path, capsys, monkeypatch):
    # each example runs as printed and writes its artifact and manifest,
    # so an example with a flag its run does not read fails here; its
    # manifest's config, fed back through --config, writes the same bytes
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SADDLELOOP_OUT_DIR", raising=False)
    code, stdout, err = run(argv, capsys)
    assert code == 0, err
    out = tmp_path / stdout.strip()
    manifest = Path(f"{out}.manifest.json")
    assert out.is_file() and manifest.is_file()
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(json.loads(manifest.read_text())["config"]))
    replay = tmp_path / "replay" / out.name
    code, _, err = run([argv[0], "--config", str(cfg), "--out", str(replay)],
                       capsys)
    assert code == 0, err
    assert replay.read_bytes() == out.read_bytes()


def test_grid_syntax_error(tmp_path, capsys):
    code, _, err = run(["abelian", "--a", "1", "--t-grid=-1:-0.5",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "LO:HI:N" in err


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SADDLELOOP_OUT_DIR", str(tmp_path / "envout"))
    code, stdout, _ = run(["pf", "--a", "1.5"], capsys)
    assert code == 0
    assert (tmp_path / "envout" / "pf.json").exists()
    assert (tmp_path / "envout" / "pf.json.manifest.json").exists()


def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "ver.json"
    code, stdout, _ = run(["verify", "--criteria", "3,5",
                           "--out", str(out)], capsys)
    assert code == 0
    assert "2/2 criteria passed" in stdout
    doc = json.loads(out.read_text())
    assert [r["number"] for r in doc["results"]] == [3, 5]
    assert all(r["passed"] for r in doc["results"])


def test_verify_out_with_criterion_4(tmp_path, capsys):
    # criterion 4 once reported passed as numpy.bool, which json rejects
    out = tmp_path / "ver4.json"
    code, _, _ = run(["verify", "--criteria", "4", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"][0]["number"] == 4
    assert doc["results"][0]["passed"] is True


def test_verify_rejects_bad_criterion(capsys):
    code, _, err = run(["verify", "--criteria", "3,99"], capsys)
    assert code == 2


@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_rejects_empty_criteria(tmp_path, capsys, source):
    # an empty list names no criterion, from the command line or a
    # config file alike; it is not the default run
    out = tmp_path / "ver.json"
    if source == "flag":
        argv = ["verify", "--criteria="]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"criteria": ""}))
        argv = ["verify", "--config", str(cfg)]
    code, stdout, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2 and "error: criteria:" in err
    assert stdout == "" and not out.exists()


def test_durations_survive_clock_steps(tmp_path, capsys, monkeypatch):
    # a wall clock that steps back between any two readings leaves the
    # manifest's wall time and each criterion's runtime >= 0
    readings = itertools.count(1e9, -60.0)
    monkeypatch.setattr(time, "time", lambda: next(readings))
    out = tmp_path / "pf.json"
    code, _, _ = run(["pf", "--a", "0.5", "--out", str(out)], capsys)
    assert code == 0
    man = json.loads((tmp_path / "pf.json.manifest.json").read_text())
    assert man["wall_time_s"] >= 0.0
    out = tmp_path / "ver.json"
    code, _, _ = run(["verify", "--criteria", "3", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["results"][0]["runtime_s"] >= 0.0


def test_abelian_rejects_center_energy(tmp_path, capsys):
    # t1 = 13.5, the center energy of a = 0.5's SigmaMinus, bounds that
    # annulus as a - 3 bounds SigmaPlus: no oval, a config error and no
    # artifact
    out = tmp_path / "ab.csv"
    code, _, err = run(["abelian", "--a", "0.5", "--annulus", "minus",
                        "--t-grid=13.5:13.5:1", "--out", str(out)], capsys)
    assert code == 2 and "SIGMA_MINUS requires t in (0.0, 13.5)" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, module, name", [
    (["abelian", "--a", "1", "--t-grid=-1.0:-0.5:3"], "abelian",
     "triples_on_grid"),
    (["pf", "--a", "0.5"], "picard_fuchs", "fundamental"),
    (["centroid", "--a", "1", "--n", "8"], "centroid", "sample_curve"),
])
def test_manifest_clock_covers_computation(tmp_path, capsys, monkeypatch,
                                           argv, module, name):
    mod = importlib.import_module(f"saddleloop.{module}")
    orig = getattr(mod, name)

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return orig(*args, **kwargs)

    monkeypatch.setattr(mod, name, slow)
    out = tmp_path / "artifact"
    code, _, _ = run(argv + ["--out", str(out)], capsys)
    assert code == 0
    man = json.loads((tmp_path / "artifact.manifest.json").read_text())
    assert man["wall_time_s"] >= 0.2


@pytest.mark.parametrize("extra, t_max", [
    (["--T", "80"], 80.0), ([], 400.0)])
def test_sim_census_passes_T(tmp_path, capsys, monkeypatch, extra, t_max):
    # and asks for the saddle data that census leaves out by default
    seen = {}

    def fake_census(flow, **kwargs):
        seen.update(kwargs)
        return CycleCensus(cycles=(), saddle_traces=None, shifts=None,
                           degenerate_continuum=False, no_return_count=0,
                           grid_size=kwargs["n"], window=(0.0, 1.0))

    monkeypatch.setattr(cli, "census", fake_census)
    out = tmp_path / "census.json"
    code, _, _ = run(["sim", "--family", "normal", "--a", "1",
                      "--eps", "0.001", "--f", "0.3,0,0,0,0,0", "--census",
                      "--out", str(out)] + extra, capsys)
    assert code == 0
    assert seen["T_max"] == t_max
    assert seen["with_saddle_data"] is True
    man = json.loads((tmp_path / "census.json.manifest.json").read_text())
    assert man["config"].get("T") == (80.0 if extra else None)


_VALID_ARGV = {
    "abelian": ["--a", "1", "--t-grid=-1.0:-0.5:3"],
    "pf": ["--a", "1"],
    "melnikov": ["--a", "1", "--alpha", "1", "--beta", "1",
                 "--t-grid=-1.0:-0.5:3"],
    "centroid": ["--a", "1"],
    "sim": ["--eps", "0", "--traj", "--start", "0,1"],
    "verify": ["--criteria", "3"],
}


@pytest.mark.parametrize("command, flag", [
    *((c, f) for c in sorted(_VALID_ARGV) for f in ("--threads", "--seed")),
    ("pf", "--tol"), ("verify", "--tol"), ("melnikov", "--c"),
    ("sim", "--stability-delta")])
def test_removed_flags_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command] + _VALID_ARGV[command] + [flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["abelian"] + _VALID_ARGV["abelian"],
    ["melnikov"] + _VALID_ARGV["melnikov"],
    ["melnikov", "--family", "appendix", "--mu2", "0.657",
     "--h-grid=-0.1:-0.01:5"],
    ["centroid", "--a", "1", "--n", "12"]])
def test_tolerance_floor_rejected(argv, tmp_path, capsys):
    # a quadrature --tol tighter than 1e-12 is a config error, caught
    # before any artifact is written
    out = tmp_path / "out.csv"
    code, _, err = run(argv + ["--tol", "1e-13", "--out", str(out)], capsys)
    assert code == 2
    assert "quadrature tolerance must be >= 1e-12" in err
    assert not out.exists()


@pytest.mark.parametrize("tol", [["--tol", "-1"], ["--tol=0"]])
def test_flow_tolerance_rejected(tol, tmp_path, capsys):
    # "--tol -1" reaches the flow by the dash rule; both fail there,
    # before any artifact, instead of integrating without end or error
    out = tmp_path / "traj.csv"
    code, _, err = run(_TRAJ + tol + ["--out", str(out)], capsys)
    assert code == 2 and "error: flow tolerance must lie in" in err
    assert not out.exists()


_NORMAL = ["sim", "--family", "normal", "--a", "1"]
_TRAJ_AT = ["--traj", "--start", "1.0,0.5"]
_FAILED_TRAJ = ["integration failed before reaching T"]


# Each of these runs integrated without end while a nan step size never
# counted as an underflow, so each runs in its own process, under a
# timeout: a non-finite input is a config error (exit 2), and a field
# that overflows from finite input fails its lanes (exit 3).
@pytest.mark.parametrize("argv, code, flags", [
    (_NORMAL + ["--eps", "nan", "--f", "0,0,0,0,0,1", "--census"], 2, None),
    (_NORMAL + ["--eps", "1e-3", "--f", "nan,0,0,0,0,1", "--census"], 2, None),
    (["sim", "--family", "appendix", "--eps", "inf", "--census",
      "--n", "100"], 2, None),
    (["sim", "--family", "appendix", "--eps", "1e-3", "--mu1", "nan",
      "--census", "--n", "100"], 2, None),
    (_NORMAL + ["--eps", "1e-3", "--f", "0,0,0,0,0,1", "--census",
                "--T", "inf"], 2, None),
    (_NORMAL + ["--eps", "nan"] + _TRAJ_AT + ["--T", "1"], 2, None),
    (_NORMAL + ["--eps", "1e-3"] + _TRAJ_AT + ["--T", "nan"], 2, None),
    (_NORMAL + ["--eps", "1e-3", "--traj", "--start", "nan,0.5"], 2, None),
    (_NORMAL + ["--eps", "1e-3", "--traj", "--start", "1e200,1e200",
                "--T", "10"], 3, _FAILED_TRAJ),
    (_NORMAL + ["--eps", "1e300", "--f", "1,1,1,1,1,1", "--traj",
                "--start", "1,0.5", "--T", "10"], 3, _FAILED_TRAJ),
    (_NORMAL + ["--eps", "1e300", "--f", "1,1,1,1,1,1", "--census"], 3,
     ["100 census lanes failed"]),
], ids=["eps-nan", "f-nan", "appendix-eps-inf", "mu1-nan", "T-max-inf",
        "traj-eps-nan", "T-nan", "start-nan", "start-overflow",
        "field-overflow", "census-all-failed"])
def test_non_finite_sim_input_ends(argv, code, flags, tmp_path):
    out = tmp_path / "out.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(saddleloop.__file__).parent.parent)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "saddleloop.cli", *argv,
                           "--out", str(out)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert "must be" in proc.stderr and "finite" in proc.stderr
        assert not out.exists()
    else:
        man = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert man["flags"] == flags


@pytest.mark.parametrize("argv", [
    ["melnikov", "--a", "1", "--alpha", "nan", "--beta", "1",
     "--t-grid=-1.0:-0.5:3"],
    ["melnikov", "--a", "1", "--alpha", "1", "--beta", "1", "--gamma", "inf",
     "--t-grid=-1.0:-0.5:3"],
    ["melnikov", "--family", "appendix", "--mu2", "nan",
     "--h-grid=-0.1:-0.01:5"],
    ["abelian", "--a", "1", "--t-grid=-1.0:-0.5:3", "--tol", "nan"],
    ["centroid", "--a", "1", "--n", "12", "--tol", "nan"]])
def test_non_finite_first_order_input_rejected(argv, tmp_path, capsys):
    # a nan coefficient or tolerance once wrote an all-nan csv, exit 0
    out = tmp_path / "out.csv"
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert "nan" in err or "inf" in err
    assert not out.exists()
