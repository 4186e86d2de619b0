import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from semivmp import cli
from semivmp.models import demo_mean_function


def make_csv(path, header, columns):
    lines = [",".join(header)]
    for vals in zip(*columns):
        lines.append(",".join(str(v) for v in vals))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def spline_csv(tmp_path):
    r = np.random.default_rng(30)
    x = r.uniform(size=150)
    y = np.sin(2 * np.pi * x) + r.normal(scale=0.2, size=150)
    p = tmp_path / "spline.csv"
    make_csv(p, ["x", "y"], [[f"{v:.8g}" for v in x], [f"{v:.8g}" for v in y]])
    return p


@pytest.fixture
def linreg_csv(tmp_path):
    r = np.random.default_rng(31)
    x1, x2 = r.normal(size=80), r.normal(size=80)
    y = 1.0 + 2.0 * x1 - 1.5 * x2 + r.normal(scale=0.5, size=80)
    p = tmp_path / "linreg.csv"
    make_csv(p, ["y", "x1", "x2"], [[f"{v:.8g}" for v in c] for c in (y, x1, x2)])
    return p


@pytest.fixture
def binary_csv(tmp_path):
    r = np.random.default_rng(32)
    x = r.uniform(size=200)
    y = r.binomial(1, demo_mean_function(x))
    p = tmp_path / "binary.csv"
    make_csv(p, ["x", "y"], [[f"{v:.8g}" for v in x], [int(v) for v in y]])
    return p


def run_fit(tmp_path, data, model, extra=()):
    out = tmp_path / "fit.json"
    code = cli.main(
        ["fit", "--model", model, "--data", str(data), "--response", "y",
         "--predictor", "x", "--out", str(out), *extra]
    )
    return code, out


def test_penspline_fit_end_to_end(tmp_path, spline_csv):
    code, out = run_fit(tmp_path, spline_csv, "penspline",
                        ["--knots", "6", "--iters", "500"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["model"] == "penspline"
    assert doc["meta"]["n"] == 150
    assert set(doc["q_densities"]) == {"coef", "sigsq_u", "a_u", "sigsq_eps", "a_eps"}
    assert doc["convergence"]["converged"] is True
    assert len(doc["curves"]["fit"]["grid"]) == 201
    inc = np.diff(doc["elbo_trace"])
    assert inc.min() >= -1e-8
    # identity link: the 95% band is symmetric about the mean
    c = doc["curves"]["fit"]
    np.testing.assert_allclose(
        np.asarray(c["upper95"]) - np.asarray(c["mean"]),
        np.asarray(c["mean"]) - np.asarray(c["lower95"]),
        rtol=1e-9, atol=1e-12,
    )


def test_fit_output_is_deterministic(tmp_path, spline_csv):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["fit", "--model", "penspline", "--data", str(spline_csv),
            "--response", "y", "--predictor", "x", "--knots", "5",
            "--iters", "400"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_linreg_fit_reports_original_scale(tmp_path, linreg_csv):
    out = tmp_path / "fit.json"
    code = cli.main(
        ["fit", "--model", "linreg", "--data", str(linreg_csv), "--response", "y",
         "--predictor", "x1,x2", "--iters", "300", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    mu = doc["coefficients_original_scale"]["mu"]
    np.testing.assert_allclose(mu, [1.0, 2.0, -1.5], atol=0.3)
    from semivmp.mfvb import mfvb_linear_regression

    rows = np.loadtxt(linreg_csv, delimiter=",", skiprows=1)
    X = np.column_stack([np.ones(rows.shape[0]), rows[:, 1], rows[:, 2]])
    oracle = mfvb_linear_regression(rows[:, 0], X)
    np.testing.assert_allclose(mu, oracle.mu_q_beta, rtol=1e-5, atol=1e-7)


def test_glmspline_fit(tmp_path, binary_csv):
    code, out = run_fit(tmp_path, binary_csv, "glmspline",
                        ["--knots", "6", "--link", "probit", "--iters", "800"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["link"] == "probit"
    c = doc["curves"]["fit"]
    for key in ("mean", "lower95", "upper95"):
        vals = np.asarray(c[key])
        assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_sweep_limit_exit_code(tmp_path, spline_csv):
    code, _ = run_fit(tmp_path, spline_csv, "penspline",
                      ["--knots", "6", "--iters", "2"])
    assert code == 2


def test_missing_column_is_reported(tmp_path, spline_csv, capsys):
    code = cli.main(
        ["fit", "--model", "penspline", "--data", str(spline_csv),
         "--response", "zzz", "--predictor", "x", "--out", str(tmp_path / "o.json")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "zzz" in err and "available" in err


def test_bad_cell_reports_line_number(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n0.1,1.0\n0.2,oops\n", encoding="utf-8")
    code = cli.main(
        ["fit", "--model", "penspline", "--data", str(p), "--response", "y",
         "--predictor", "x", "--out", str(tmp_path / "o.json")]
    )
    assert code == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_cell_reports_column_and_line(tmp_path, capsys, cell):
    p = tmp_path / "nonfinite.csv"
    p.write_text(f"x,y\n0.1,1.0\n0.2,0.5\n{cell},2.0\n", encoding="utf-8")
    code = cli.main(
        ["fit", "--model", "penspline", "--data", str(p), "--response", "y",
         "--predictor", "x", "--out", str(tmp_path / "o.json")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "line 4" in err and "column 'x'" in err and "non-finite" in err


def test_ragged_row_reports_line_number(tmp_path, capsys):
    p = tmp_path / "ragged.csv"
    p.write_text("x,y\n0.1,1.0\n0.2\n", encoding="utf-8")
    code = cli.main(
        ["fit", "--model", "penspline", "--data", str(p), "--response", "y",
         "--predictor", "x", "--out", str(tmp_path / "o.json")]
    )
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_linreg_requires_predictor(tmp_path, linreg_csv, capsys):
    code = cli.main(
        ["fit", "--model", "linreg", "--data", str(linreg_csv), "--response", "y",
         "--out", str(tmp_path / "o.json")]
    )
    assert code == 1
    assert "predictor" in capsys.readouterr().err


def test_groupcurves_requires_group_and_label(tmp_path, spline_csv, capsys):
    code = cli.main(
        ["fit", "--model", "groupcurves", "--data", str(spline_csv), "--response", "y",
         "--predictor", "x", "--out", str(tmp_path / "o.json")]
    )
    assert code == 1
    assert "--group" in capsys.readouterr().err


def test_groupcurves_end_to_end(tmp_path):
    r = np.random.default_rng(33)
    m, per = 6, 20
    gid = np.repeat([f"s{i}" for i in range(m)], per)
    lab = np.repeat((np.arange(m) % 2), per)
    x = r.uniform(size=m * per)
    y = np.sin(2 * np.pi * x) + lab.repeat(1) * 0.4 + r.normal(scale=0.3, size=m * per)
    p = tmp_path / "groups.csv"
    make_csv(p, ["y", "x", "subject", "arm"],
             [[f"{v:.8g}" for v in y], [f"{v:.8g}" for v in x], gid, lab])
    out = tmp_path / "g.json"
    code = cli.main(
        ["fit", "--model", "groupcurves", "--data", str(p), "--response", "y",
         "--predictor", "x", "--group", "subject", "--label", "arm",
         "--knots", "5", "--iters", "2000", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert "Sigma_subject" in doc["q_densities"]
    assert set(doc["curves"]) == {"group_0", "group_1", "contrast"}


def test_validate_all_pass(capsys):
    t0 = time.perf_counter()
    code = cli.cmd_validate()
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[pass]") == 7
    assert "[FAIL]" not in out
    assert "7/7 checks passed" in out
    assert elapsed < 120.0


def test_validate_detects_injected_fault(monkeypatch, capsys):
    # corrupt one checked function; the suite must notice and fail
    monkeypatch.setattr(cli, "zeta_prime", lambda x: 0.123)
    code = cli.cmd_validate()
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out
    assert "6/7 checks passed" in out


def test_unknown_model_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        cli.main(["fit", "--model", "anova", "--data", "x.csv", "--response", "y"])


def test_module_entry_point_runs_without_warning():
    # the package root must not import semivmp.cli, or runpy warns that the
    # module was already in sys.modules before `python -m` executed it
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "semivmp.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fit" in proc.stdout
