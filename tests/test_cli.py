import json
import os

import jsonschema
import pytest
from importlib import resources

from symmetroid.cli import EXIT_ERROR, EXIT_INCONCLUSIVE, EXIT_OK, \
    load_pencil, main
from symmetroid.pencil import parse_pencil_text

SCHEMA = json.loads(resources.files("symmetroid.data")
                    .joinpath("report.schema.json").read_text())


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_builtin_fixtures_roundtrip():
    for name in ("thm_example", "prop_q3", "cor_easy"):
        P, src = load_pencil(name)
        assert src == "builtin:" + name
        again = parse_pencil_text("\n".join(P.to_lines()))
        assert [q.coeffs for q in again.quadrics] == \
            [q.coeffs for q in P.quadrics]
    with pytest.raises(FileNotFoundError):
        load_pencil("nonexistent_thing")


def test_classify_subcommand(tmp_path):
    code, rep = run_cli(["classify", "thm_example", "--t", "0,1,0,0,0",
                         "--field", "R"], tmp_path)
    assert code == EXIT_OK
    assert rep["status"] == "ok"
    assert rep["result"]["classification"]["signature"] == [4, 0, 1]
    assert rep["result"]["det"] == "0"


def test_alpha_symbol_subcommand(tmp_path):
    code, rep = run_cli(["alpha-symbol", "thm_example"], tmp_path)
    assert code == EXIT_OK
    a_num = rep["result"]["symbol"]["a_num"]
    assert a_num.startswith("-t0^2 - 2*t0*t1 + 7*t1^2")


def test_evaluate_subcommand(tmp_path):
    code, rep = run_cli(["evaluate", "prop_q3", "--t", "1,0,0,0,0",
                         "--place", "3"], tmp_path)
    assert code == EXIT_OK
    assert rep["result"]["lifts"] == 2
    assert all(p["invariant"] == "1/2" for p in rep["result"]["points"])
    code, rep = run_cli(["evaluate", "prop_q3", "--t", "0,1,0,0,0",
                         "--place", "3"], tmp_path)
    assert [p["invariant"] for p in rep["result"]["points"]] == ["0", "0"]


def test_x_point_subcommand(tmp_path):
    code, rep = run_cli(["x-point", "thm_example", "--t", "1,0,0,0,0",
                         "--v", "0,0,0,0,1"], tmp_path)
    assert code == EXIT_OK
    assert rep["result"]["v"] == [0, 0, 0, 0, 1]
    assert not rep["result"]["degenerate"]


def test_v3_subcommand_and_inconclusive_exit(tmp_path):
    code, rep = run_cli(["v3-test", "thm_example"], tmp_path)
    assert code == EXIT_OK and rep["result"]["degree"] == 3
    # rank-2 member: stays inconclusive -> exit 2
    bad = tmp_path / "bad.pencil"
    bad.write_text("x0*x1\nx1^2 + x2^2\nx2*x3 + x4^2\nx3^2 + x0*x2\n"
                   "x4*x0 + x1*x3\n")
    code, rep = run_cli(["v3-test", str(bad), "--dmax", "5"], tmp_path)
    assert code == EXIT_INCONCLUSIVE
    assert rep["status"] == "inconclusive"


def test_sp_scan_subcommand(tmp_path):
    code, rep = run_cli(["sp-scan", "thm_example", "--cutoff", "7"],
                        tmp_path)
    assert code == EXIT_OK
    assert set(rep["result"].keys()) == {"2", "3", "5", "7"}
    assert not any(r["member"] for r in rep["result"].values())


def test_sp_scan_refuses_cutoff_past_window_before_scanning(tmp_path,
                                                           monkeypatch):
    # 1009 is past the scans' cap; not one prime below it is scanned
    from symmetroid import density
    scanned = []
    monkeypatch.setattr(density, "sp_member",
                        lambda P, p: scanned.append(p))
    code, rep = run_cli(["sp-scan", "thm_example", "--cutoff", "1009"],
                        tmp_path)
    assert code == EXIT_ERROR and rep["status"] == "error"
    assert "largest prime" in rep["result"] and scanned == []


def test_density_and_census_subcommands(tmp_path):
    code, rep = run_cli(["density-bound", "--cutoff", "100"], tmp_path)
    assert code == EXIT_OK
    assert rep["result"]["final_bound_float"] >= 0.73
    code, rep = run_cli(["census", "--p", "2"], tmp_path)
    assert code == EXIT_OK and rep["result"]["census"] == 186
    # --workers goes to the census itself, not into the environment
    env = dict(os.environ)
    code, rep = run_cli(["--workers", "2", "census", "--p", "2"], tmp_path)
    assert code == EXIT_OK and rep["result"]["census"] == 186
    assert dict(os.environ) == env


def test_monte_carlo_subcommand(tmp_path):
    code, rep = run_cli(["monte-carlo", "--height", "10", "--cutoff", "7",
                         "--samples", "50", "--seed", "1"], tmp_path)
    assert code == EXIT_OK
    assert rep["result"]["samples"] == 50


def test_error_exit_codes(tmp_path):
    code = main(["evaluate", "no_such_file.pencil", "--t", "1,0,0,0,0",
                 "--place", "3", "--out", str(tmp_path / "e.json")])
    assert code == EXIT_ERROR
    rep = json.loads((tmp_path / "e.json").read_text())
    assert rep["status"] == "error"
    jsonschema.validate(rep, SCHEMA)
    # bad flags: argparse failures are remapped to exit 1
    with pytest.raises(SystemExit) as exc:
        main(["census", "--p", "5"])
    assert exc.value.code == EXIT_ERROR
    # evaluating off H is an engine error ([Q2] is nonsingular)
    code = main(["evaluate", "thm_example", "--t", "0,0,1,0,0",
                 "--place", "3", "--out", str(tmp_path / "e2.json")])
    assert code == EXIT_ERROR


def test_malformed_pencil_files(tmp_path):
    four = tmp_path / "four.pencil"
    four.write_text("x0^2\nx1^2\nx2^2\nx3^2\n")
    code = main(["classify", str(four), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_ERROR
    badvar = tmp_path / "badvar.pencil"
    badvar.write_text("\n".join(["x0^2", "x1^2", "x2^2", "x3^2", "y4^2"]))
    code = main(["classify", str(badvar), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_ERROR


def test_regularity_inconclusive_exit(tmp_path, thm_pencil):
    # degree caps too small for the smoothness rung -> exit 2, honest status
    f = tmp_path / "thm.pencil"
    f.write_text("\n".join(thm_pencil.to_lines()) + "\n")
    code, rep = run_cli(["regularity", str(f), "--prime", "7",
                         "--dmax-bi", "1"], tmp_path)
    assert code == EXIT_INCONCLUSIVE
    assert rep["status"] == "inconclusive"
