import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from semivmp import cli
from semivmp.engine import build_factor_graph, q_density, run_vmp
from semivmp.fragments_glm import LinearPredictorOverflowError
from semivmp.models import demo_mean_function
from semivmp.natparam import TwoLevelLayout, TwoLevelMoments
from test_two_level import write_synthetic_data


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


def test_header_without_data_rows_is_reported(tmp_path, capsys):
    p = tmp_path / "header_only.csv"
    p.write_text("x,y\n\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(
            ["fit", "--model", "penspline", "--data", str(p), "--response", "y",
             "--predictor", "x", "--out", str(tmp_path / "o.json")]
        )
    assert code == 1
    err = capsys.readouterr().err
    assert "no data rows" in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "nan", "tol must be positive, got nan"),
    ("--tol", "0", "tol must be positive, got 0.0"),
    ("--a-hyper", "0", "Hyperparameters.A must be finite and positive, got 0.0"),
    ("--sigma-beta-sq", "-1", "Hyperparameters.sigma_beta_sq must be finite and positive, got -1.0"),
    ("--sigma-beta-sq", "inf", "Hyperparameters.sigma_beta_sq must be finite and positive, got inf"),
])
def test_bad_numeric_flag_is_reported(tmp_path, spline_csv, capsys, flag, value, message):
    code, out = run_fit(tmp_path, spline_csv, "penspline", ["--knots", "6", flag, value])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_overflow_advice_names_a_fit_flag(capsys):
    """The CLI flag the GLM overflow error recommends is one `semivmp fit` has."""
    advice = str(LinearPredictorOverflowError(1e300))
    flags = re.findall(r"--[a-z][a-z-]*", advice)
    assert flags == ["--sigma-beta-sq"] and "run_vmp(damping=" in advice
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--help"])
    assert exc.value.code == 0
    assert flags[0] in capsys.readouterr().out


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


@pytest.fixture
def groups_csv(tmp_path):
    r = np.random.default_rng(33)
    m, per = 6, 20
    gid = np.repeat([f"s{i}" for i in range(m)], per)
    lab = np.repeat((np.arange(m) % 2), per)
    x = r.uniform(size=m * per)
    y = np.sin(2 * np.pi * x) + lab.repeat(1) * 0.4 + r.normal(scale=0.3, size=m * per)
    p = tmp_path / "groups.csv"
    make_csv(p, ["y", "x", "subject", "arm"],
             [[f"{v:.8g}" for v in y], [f"{v:.8g}" for v in x], gid, lab])
    return p


GROUPS_ARGS = ["--model", "groupcurves", "--response", "y", "--predictor", "x",
               "--group", "subject", "--label", "arm"]


def test_groupcurves_end_to_end(tmp_path, groups_csv):
    out = tmp_path / "g.json"
    code = cli.main(
        ["fit", "--data", str(groups_csv), *GROUPS_ARGS, "--iters", "2000", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert "Sigma_subject" in doc["q_densities"]
    assert set(doc["curves"]) == {"group_0", "group_1", "contrast"}


@pytest.fixture
def one_group_csv(tmp_path):
    r = np.random.default_rng(34)
    x = r.uniform(size=60)
    y = np.sin(2 * np.pi * x) + r.normal(scale=0.3, size=60)
    p = tmp_path / "one_group.csv"
    make_csv(p, ["y", "x", "subject", "arm"],
             [[f"{v:.8g}" for v in y], [f"{v:.8g}" for v in x], ["s0"] * 60, [1] * 60])
    return p


@pytest.mark.filterwarnings("ignore:all group labels equal")  # one group has one label
@pytest.mark.parametrize("data", ["groups_csv", "one_group_csv"])
def test_groupcurves_json_holds_the_packed_coef_density(tmp_path, request, data):
    """The coef entry of a group-curve fit holds the q-density as the graph
    does: packed on its two-level layout, with the covariance blocks and no
    dense eta or Sigma.  The dense eta and Sigma rebuilt from the JSON alone
    equal those of a library fit on the same data bit for bit."""
    path = request.getfixturevalue(data)
    out = tmp_path / "g.json"
    assert cli.main(
        ["fit", "--data", str(path), *GROUPS_ARGS, "--iters", "30", "--out", str(out)]
    ) == 2
    doc = json.loads(out.read_text())
    entry = doc["q_densities"]["coef"]
    assert set(entry) == {"family", "d", "layout", "eta_packed", "common"}
    common = {key: np.asarray(value) for key, value in entry["common"].items()}
    assert set(common) == {"mu", "Sigma_GG", "Sigma_iG", "Sigma_ii", "schur_factor"}
    layout = TwoLevelLayout(entry["layout"]["global"], entry["layout"]["groups"])
    eta = layout.unpack(np.asarray(entry["eta_packed"]))
    Sigma = TwoLevelMoments(layout, logdet=None, **common).covariance()

    req = cli.FitRequest(model="groupcurves", data=str(path), response="y", predictor="x",
                         group="subject", label="arm", iters=30)
    model = cli._build_model(req, *cli._load_csv(req.data))
    graph = build_factor_graph(model)
    run_vmp(graph, max_iter=req.iters, tol=req.tol)
    qd = q_density(graph, "coef")
    fitted, p = graph.nodes["coef"].layout, qd.d
    assert layout.m == (1 if data == "one_group_csv" else 6)
    assert np.array_equal(layout.glob, fitted.glob) and np.array_equal(layout.groups, fitted.groups)
    assert entry["family"] == qd.family and entry["d"] == p == layout.p
    assert eta.size == p + p * p and np.array_equal(eta, fitted.unpack(qd.eta_q))
    assert np.array_equal(common["mu"], qd.common["mu"])
    assert np.array_equal(Sigma, qd.moments.covariance())
    dense = {node: e for node, e in doc["q_densities"].items() if node != "coef"}
    assert dense and all(set(e) == {"family", "d", "eta", "common"} for e in dense.values())
    assert doc["meta"]["knots"] is None


@pytest.mark.parametrize("data, args", [
    ("groups_csv", GROUPS_ARGS),
    ("linreg_csv", ["--model", "linreg", "--response", "y", "--predictor", "x1,x2"]),
], ids=["groupcurves", "linreg"])
def test_knots_is_rejected_where_the_model_has_no_knots(tmp_path, request, capsys, data, args):
    """groupcurves and linreg have no basis that --knots sizes: the flag is an
    input error naming it and the model, not a value ignored in the fit and
    recorded in meta.knots."""
    out = tmp_path / "o.json"
    code = cli.main(["fit", "--data", str(request.getfixturevalue(data)), *args,
                     "--knots", "5", "--out", str(out)])
    assert code == 1
    assert f"--knots does not apply to --model {args[1]}" in capsys.readouterr().err
    assert not out.exists()


def test_large_group_curve_fit_forms_no_dense_coef(tmp_path):
    """`semivmp fit --model groupcurves` at m=200 (p=1424), three sweeps: the
    tracemalloc peak of the whole command stays below one p x p float64 array
    (16.2 MB) and the file below 4 MB.  Writing the dense coef eta and Sigma
    peaked at 172 MB and wrote 99 MB."""
    write_synthetic_data(tmp_path, "--seed", "1", "--groups", "200")
    out = tmp_path / "fit.json"
    argv = ["fit", "--data", str(tmp_path / "grouped_curves.csv"), *GROUPS_ARGS,
            "--iters", "3", "--out", str(out)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    p = json.loads(out.read_text())["q_densities"]["coef"]["d"]
    assert code == 2 and p == 1424
    assert peak < 8 * p * p, f"peak {peak / 1e6:.1f} MB"
    assert size < 4e6, f"file {size / 1e6:.1f} MB"


# --- the JSON writer -------------------------------------------------------


def stdlib_json(obj):
    """The reference layout: the stdlib's pretty-printer."""
    return json.dumps(obj, indent=2, sort_keys=True, default=lambda o: o.tolist())


def written_json(obj):
    buf = io.StringIO()
    cli._write_json(obj, buf)
    return buf.getvalue()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16, -1e16,
                  1e-5, 1e-7, 0.1, 123456789.0, 1.7976931348623157e308]
FINITE_FLOATS = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOATS = FINITE_FLOATS | st.sampled_from([math.inf, -math.inf, math.nan])
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from("\x00\x1f\"\\\u00e9\u2028\U0001f600"))
FLOAT_ARRAYS = (hnp.arrays(np.float64, SHAPES, elements=FINITE_FLOATS)
                | hnp.arrays(np.float64, SHAPES, elements=ANY_FLOATS))
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | ANY_FLOATS | TEXT | FLOAT_ARRAYS
    | hnp.arrays(np.int64, SHAPES) | hnp.arrays(np.bool_, SHAPES)
    | ANY_FLOATS.map(np.float64) | st.floats(width=32).map(np.float32)
    | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
)
JSON_DOCUMENTS = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=12,
)


@given(JSON_DOCUMENTS)
def test_writer_matches_the_stdlib_pretty_printer(doc):
    assert written_json(doc) == stdlib_json(doc)


@given(FLOAT_ARRAYS)
@example(np.array([[0.0, -0.0, 5e-324], [-0.0, 1e16, 1e-5]]))
@example(np.array([1.0, np.nan, -np.inf]))
def test_writer_matches_the_stdlib_pretty_printer_on_float_arrays(a):
    doc = {"a": [a]}
    assert written_json(doc) == stdlib_json(doc)


def test_writer_rejects_what_json_rejects():
    for bad in (object(), {1.5j}, np.array([1 + 2j])):
        with pytest.raises(TypeError):
            written_json({"a": [bad]})


README_FITS = {
    "penspline": ["--model", "penspline", "--data", "gaussian_spline.csv", "--response", "y",
                  "--predictor", "x", "--knots", "15"],
    "probit": ["--model", "glmspline", "--data", "binary_spline.csv", "--response", "y",
               "--predictor", "x", "--link", "probit", "--iters", "400"],
    "groupcurves": ["--model", "groupcurves", "--data", "grouped_curves.csv", "--response", "y",
                    "--predictor", "x", "--group", "subject", "--label", "arm"],
}


@pytest.fixture(scope="module")
def readme_fits(tmp_path_factory):
    """The three README fits on the README data (seed 1): for each, the
    written JSON text and the document the CLI handed its writer."""
    data = tmp_path_factory.mktemp("readme")
    write_synthetic_data(data, "--seed", "1")
    writer, docs, fits = cli._write_json, [], {}

    def spy(obj, fh, nl="\n"):
        if nl == "\n":  # the top level, not the writer's own recursion
            docs.append(obj)
        writer(obj, fh, nl)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_write_json", spy)
        for name, args in README_FITS.items():
            args, out = list(args), data / f"{name}.json"
            args[args.index("--data") + 1] = str(data / args[args.index("--data") + 1])
            assert cli.main(["fit", *args, "--out", str(out)]) == 0
            fits[name] = out.read_text(encoding="utf-8"), docs.pop()
    return fits


@pytest.mark.parametrize("name", README_FITS)
def test_readme_json_reports_the_library_fit_counts(readme_fits, name):
    """The convergence block carries the moves applied and the SQUAREM steps
    accepted and rejected of a library fit of the same data with the same
    settings; only the group curves declare a move."""
    doc = json.loads(readme_fits[name][0])
    conv, (header, rows) = doc["convergence"], cli._load_csv(doc["meta"]["data"])
    args = cli.make_parser().parse_args(["fit", *README_FITS[name]])
    req = cli.FitRequest(**{k: v for k, v in vars(args).items() if k != "command"})
    report = run_vmp(build_factor_graph(cli._build_model(req, header, rows)), max_iter=req.iters,
                     tol=req.tol)
    counts = ("iterations", "moves_applied", "steps_accepted", "steps_rejected")
    assert {k: conv[k] for k in counts} == {k: getattr(report, k) for k in counts}
    assert (conv["moves_applied"] > 0) == (name == "groupcurves")
    assert conv["steps_accepted"] + conv["steps_rejected"] > 0


@pytest.mark.parametrize("name", README_FITS)
def test_readme_json_has_the_stdlib_layout(readme_fits, name):
    text, doc = readme_fits[name]
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert text == stdlib_json(doc) + "\n"


def write_peak(write, doc, path):
    """tracemalloc peak, in bytes, of writing ``doc`` to ``path``."""
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(doc, fh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_peaks_at_a_fraction_of_a_long_row(tmp_path):
    """A 1-D array of 224 600 numbers, half of them distinct (the size of
    the m=1000 packed coef vector): written a block at a time, it peaks at
    a fraction of the 24.1 MB a whole-row join took, byte for byte as the
    stdlib writes it."""
    rng = np.random.default_rng(4)
    half = rng.normal(size=112_300)
    doc = {"a": np.concatenate([half, half])[rng.permutation(224_600)]}
    peak = write_peak(cli._write_json, doc, tmp_path / "a.json")
    assert peak <= 12.05e6, f"peak {peak / 1e6:.1f} MB"
    assert (tmp_path / "a.json").read_text(encoding="utf-8") == stdlib_json(doc)


def test_writer_peaks_below_the_stdlib_writer(readme_fits, tmp_path):
    """On the README group-curve document (m=20, p=164: the packed coef
    entry and the three curve grids)."""
    _, doc = readme_fits["groupcurves"]
    ours = write_peak(lambda d, fh: (cli._write_json(d, fh), fh.write("\n")), doc, tmp_path / "a.json")
    theirs = write_peak(lambda d, fh: fh.write(stdlib_json(d) + "\n"), doc, tmp_path / "b.json")
    assert ours < theirs
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


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


def test_glm_spline_experiment_runs_from_a_checkout(tmp_path):
    # the script puts the checkout's src on sys.path itself, as the other scripts do
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_glm_spline_experiment.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
