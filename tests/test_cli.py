import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qmele
from qmele import InnovationDist, cli, reports, simulate
from qmele.cli import main, read_series_csv

from conftest import THETA_FINITE, THETA_IGARCH, make_theta

TINY_INI = """
[model]
p = 1
q = 0
r = 1
s = 1

[truth]
mu = 0.0
phi = 0.5
alpha0 = 0.1
alpha = 0.18
beta = 0.4

[innovations]
kind = laplace

[study]
n = 300
replications = 3
seed = 11
estimators = sw_qmele

[g0]
mode = known
value = 0.5

[optimizer]
restarts = 1
"""


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_simulate_is_byte_deterministic(tmp_path):
    args = [
        "simulate", "--orders", "1,0,1,1", "--theta", "0,0.5,0.1,0.18,0.4",
        "--dist", "laplace", "--n", "1000", "--seed", "4", "--burn-in", "500",
    ]
    assert run_cli(*args, "--out-dir", tmp_path / "a") == 0
    assert run_cli(*args, "--out-dir", tmp_path / "b") == 0
    assert digest(tmp_path / "a" / "simulated.csv") == digest(tmp_path / "b" / "simulated.csv")
    lines = (tmp_path / "a" / "simulated.csv").read_text().splitlines()
    assert lines[0] == "y"
    assert len(lines) == 1001


def test_simulate_igarch_paths_heavier_tailed():
    # across matched seeds the integrated design has far larger sample variance
    ratios = []
    for seed in range(20):
        fin = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 1000, seed=seed)
        igr = simulate(make_theta(THETA_IGARCH), InnovationDist("laplace"), 1000, seed=seed)
        ratios.append(np.var(igr) / np.var(fin))
    ratios = np.array(ratios)
    assert np.median(ratios) > 1.5
    assert np.mean(ratios) > 2.0


# (file name, its text or None for no file, read_series_csv keywords, the
# same as qmele flags, and the part of the message that names the file or row)
BAD_INPUTS = [
    ("missing.csv", None, {}, (), "missing.csv: [Errno 2]"),
    ("header.csv", "y\n", {}, (), "header.csv: header only"),
    ("raw2.csv", "1\n2\n", {"column": "y", "no_header": True}, ("--column", "y", "--no-header"),
     "raw2.csv: --column requires a header"),
    ("ragged.csv", "a,b\n1,2\n3\n", {"column": "b"}, ("--column", "b"), "ragged.csv: row 3 has no column 2"),
    # a field over the csv module's 131,072-character limit, which numpy also rejects
    ("long.csv", 'y\n"' + "x" * 200_000 + '"\n', {}, (), "long.csv: field larger than field limit"),
]


def bad_inputs(tmp_path):
    """BAD_INPUTS with each file written under tmp_path and named by its path."""
    for name, text, kwargs, flags, message in BAD_INPUTS:
        if text is not None:
            (tmp_path / name).write_text(text)
        yield tmp_path / name, kwargs, flags, message


def test_read_series_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(Exception) as err:
        read_series_csv(str(empty))
    assert "empty.csv" in str(err.value)

    bad = tmp_path / "bad.csv"
    bad.write_text("y\n1.0\nnot_a_number\n")
    with pytest.raises(Exception) as err:
        read_series_csv(str(bad))
    assert "row 3" in str(err.value)

    named = tmp_path / "named.csv"
    named.write_text("a,b\n1,10\n2,20\n")
    np.testing.assert_array_equal(read_series_csv(str(named), column="b"), [10.0, 20.0])
    with pytest.raises(Exception) as err:
        read_series_csv(str(named), column="c")
    assert "no column named" in str(err.value)

    raw = tmp_path / "raw.csv"
    raw.write_text("1.5\n2.5\n")
    np.testing.assert_array_equal(read_series_csv(str(raw), no_header=True), [1.5, 2.5])

    for path, kwargs, _, message in bad_inputs(tmp_path):
        with pytest.raises(Exception) as err:
            read_series_csv(str(path), **kwargs)
        assert message in str(err.value)


def test_read_series_csv_skips_blank_rows(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,b\n\n 1.5 , 10\n , \n\t\n-2e-3,20\n   \n,\n7,30\n")
    np.testing.assert_array_equal(read_series_csv(str(path)), [1.5, -2e-3, 7.0])
    np.testing.assert_array_equal(read_series_csv(str(path), column="b"), [10.0, 20.0, 30.0])
    path.write_text("y\n1\n \n2\nx\n")
    with pytest.raises(Exception) as err:
        read_series_csv(str(path))
    assert "row 4: non-numeric cell 'x'" in str(err.value)


# (file text, read_series_csv keywords, whether numpy's reader takes the file
# without the csv-module reference)
CSV_CORPUS = [
    ("y\n1.5\n-2e-3\n7\n", {}, True),
    ("\n\n1\n2\n3\n", {}, True),  # the header is the first non-blank row, "1"
    ("\n \n,\n\ty\n4\n5", {}, True),
    ("y\n1\n\n2\n\n\n3\n\n", {}, True),
    ("a,b\n\n 1.5 , 10\n , \n\t\n-2e-3,20\n   \n,\n7,30\n", {}, False),
    ("a,b\n\n 1.5 , 10\n , \n\t\n-2e-3,20\n   \n,\n7,30\n", {"column": "b"}, False),
    ("y\r\n1\r\n2\r\n\r\n3\r\n", {}, True),
    ("y\r1\r2\r", {}, False),
    ('name,y\n"a,b",1\n"c","2"\n"d ""e""", 3 \n"f\ng",4\n', {"column": "y"}, True),
    ('"y"\n"1"2\n" 3 "\n', {}, True),
    ("y,\n1,\n2,3\n4,5,6\n", {}, True),
    ("a,b\n1,10\n2\n", {"column": "b"}, False),
    ("\ufeffy\n1\n2\n", {}, True),
    ("\ufeffy\n1\n2\n", {"column": "y"}, False),
    ("\ufeff1\n2\n", {"no_header": True}, False),
    ("y\n1_000\ninf\n-nan\n", {}, False),
    ("y\ninf\n-nan\nNaN\n-Infinity\n-0.0\n5e-324\n1.797e308\n1e400\n", {}, True),
    ("y\n1\x1c\n2\n", {}, False),
    ("y\n 1\u2003\n\u20032\n", {}, True),
    ("a,b\n1,10\n2,20\n", {"column": "b"}, True),
    ("a, b \n1,10\n2,20\n", {"column": "b"}, True),
    ("a,b\n1,10\n2,20\n", {"column": "c"}, False),
    ("1.5\n2.5\n", {"no_header": True}, True),
    ("\n\n1.5\n2.5\n", {"no_header": True}, True),
    ("1\n2\n", {"column": "y", "no_header": True}, False),
    ("y\n1\n#2\n", {}, False),
    ("y\n\n \n", {}, False),
    ("", {}, False),
]


def _outcome(fn, path, kwargs):
    """The array read, as dtype, shape and bytes, or the error raised."""
    try:
        values = fn(str(path), **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return values.dtype, values.shape, values.tobytes()


@pytest.mark.parametrize("text,kwargs,compiled", CSV_CORPUS)
def test_read_series_csv_equals_the_csv_module_reference(tmp_path, monkeypatch, text, kwargs, compiled):
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    reference = _outcome(cli._read_series_rows, path, {"column": None, "no_header": False, **kwargs})
    if compiled:
        def no_fallback(*args):
            raise AssertionError("numpy's reader rejected the file")

        monkeypatch.setattr(cli, "_read_series_rows", no_fallback)
    # byte for byte, so the sign of zeros and nans counts
    assert _outcome(read_series_csv, path, kwargs) == reference


def test_series_body_is_fmt_of_every_value(tmp_path):
    rng = np.random.default_rng(18)
    edges = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.797e308, -1.7976931348623157e308, 1e-5, 9.999995e-5, 1e-4, 999999.5, 999999.4,
             1e6, 123456.5, 0.5, -1.0, 1e16, 2.0**53 + 1]
    draws = rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-323.0, 308.0, 100_000)
    values = np.r_[edges, draws, rng.standard_t(3, 1000)]
    header, body = reports.series_csv_rows(values, "eta")
    assert header == ["eta"]
    assert body == "".join(reports.fmt(v) + "\n" for v in values)
    path = tmp_path / "eta.csv"
    reports.write_csv(str(path), header, body)
    assert path.read_bytes() == ("eta\n" + body).encode("ascii")


def test_series_files_are_read_and_written_without_a_full_collection(tmp_path):
    # one container object per row sets off generation-2 collections on long series
    path, out = tmp_path / "y.csv", tmp_path / "eta.csv"
    values = np.random.default_rng(5).standard_t(3, 50_000)
    path.write_text("y\n" + "".join(f"{v!r}\n" for v in values.tolist()))
    full = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 2:
            full.append(info)

    gc.collect()
    gc.callbacks.append(count)
    try:
        read = read_series_csv(str(path))
        reports.write_csv(str(out), *reports.series_csv_rows(read, "eta"))
    finally:
        gc.callbacks.remove(count)
    np.testing.assert_array_equal(read, values)
    assert full == []


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qmele.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "qmele", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    shown = run("--help")
    assert shown.returncode == 0 and "usage: qmele" in shown.stdout
    missing = run("acf", "missing.csv", "--out-dir", "out")
    assert missing.returncode == 3 and "missing.csv" in missing.stderr


def test_fmt_edge_values():
    cases = [
        (float("nan"), "nan"), (-float("nan"), "nan"), (np.float64("nan"), "nan"),
        (float("inf"), "inf"), (-float("inf"), "-inf"), (np.float32("-inf"), "-inf"),
        (-0.0, "-0"), (0.0, "0"), (1234567.0, "1.23457e+06"), (5e-324, "4.94066e-324"),
    ]
    for value, text in cases:
        assert reports.fmt(value) == text


def test_cli_exit_codes(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run_cli("hill", empty, "--k-max", "5", "--out-dir", tmp_path) == 3
    short = tmp_path / "short.csv"
    short.write_text("y\n1\n2\n3\n")
    assert run_cli("fit", short, "--orders", "1,0,1,1", "--out-dir", tmp_path) == 3
    # a % in a config value is literal, so a bad one is a named data error
    percent = tmp_path / "percent.ini"
    percent.write_text("[weights]\nvariant = 50%\n")
    assert run_cli("fit", short, "--orders", "1,0,1,1", "--config", percent, "--out-dir", tmp_path) == 3
    assert "unknown weight variant '50%'" in capsys.readouterr().err
    # constraint-violating theta is a data/domain error
    assert (
        run_cli(
            "simulate", "--orders", "0,0,0,0", "--theta", "0,-1.0",
            "--dist", "laplace", "--n", "50", "--out-dir", tmp_path,
        )
        == 3
    )
    # an explosive ARCH coefficient overflows the volatility path
    assert (
        run_cli(
            "simulate", "--orders", "0,0,1,0", "--theta", "0,1.0,5.0",
            "--dist", "laplace", "--n", "4000", "--seed", "1", "--out-dir", tmp_path,
        )
        == 4
    )
    for path, _, flags, message in bad_inputs(tmp_path):
        assert run_cli("acf", path, *flags, "--out-dir", tmp_path) == 3
        assert message in capsys.readouterr().err
    simulate = ("simulate", "--dist", "laplace", "--n", "50", "--out-dir", tmp_path)
    scan = ("region-scan", "--iota", "1", "--dist", "laplace", "--out-dir", tmp_path)
    bad_flags = [
        (simulate + ("--orders", "1,0,1", "--theta", "0,1"), "--orders expects four integers p,q,r,s, got '1,0,1'"),
        (simulate + ("--orders", "1,0,x,1", "--theta", "0,1"), "--orders expects integers, got '1,0,x,1'"),
        (simulate + ("--orders", "0,0,0,0", "--theta", "0,one"), "--theta expects numbers, got '0,one'"),
        (scan + ("--alpha1", "0:0.5", "--beta1", "0:1:3"), "--alpha1 expects min:max:steps, got '0:0.5'"),
        (scan + ("--alpha1", "0:0.5:3", "--beta1", "0:1:x"), "--beta1 expects min:max:steps, got '0:1:x'"),
        (scan + ("--alpha1", "0.5:0:3", "--beta1", "0:1:3"), "--alpha1: empty grid '0.5:0:3'"),
        # an omitted flag takes InnovationDist's default; a given zero is checked, not replaced
        (("efficiency", "--dist", "mixture", "--epsilon", "0.5", "--tau", "0", "--out-dir", tmp_path),
         "mixture scale tau must be > 0"),
    ]
    for argv, message in bad_flags:
        assert run_cli(*argv) == 3
        assert message in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_cli_hill_on_pareto_quantiles(tmp_path):
    n = 10_000
    i = np.arange(1, n + 1)
    v = (i / (n + 1.0)) ** (-1.0 / 1.5)
    path = tmp_path / "pareto.csv"
    path.write_text("x\n" + "\n".join(f"{x:.12g}" for x in v) + "\n")
    assert run_cli("hill", path, "--k-max", "1200", "--out-dir", tmp_path) == 0
    rows = (tmp_path / "hill.csv").read_text().splitlines()[1:]
    table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    mid = [table[k] for k in range(800, 1201) if k in table]
    assert all(1.35 <= a <= 1.65 for a in mid)
    assert run_cli("hill", path, "--k-max", str(n), "--out-dir", tmp_path) == 3


def test_cli_acf_outputs(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "wn.csv"
    path.write_text("y\n" + "\n".join(f"{x:.8g}" for x in rng.standard_normal(400)) + "\n")
    assert run_cli("acf", path, "--max-lag", "10", "--out-dir", tmp_path) == 0
    acf_rows = (tmp_path / "acf.csv").read_text().splitlines()
    assert acf_rows[0] == "lag,value,band"
    assert acf_rows[1].startswith("0,1,")
    pacf_rows = (tmp_path / "pacf.csv").read_text().splitlines()
    assert len(pacf_rows) == 12


def test_cli_efficiency_output(tmp_path, capsys):
    assert run_cli("efficiency", "--dist", "laplace", "--out-dir", tmp_path) == 0
    text = (tmp_path / "efficiency.txt").read_text()
    assert "kappa1      5" in text
    assert "kappa2      4" in text
    assert "preferred   qmele" in text


def test_cli_region_scan_boundary(tmp_path):
    assert (
        run_cli(
            "region-scan", "--alpha1", "0:0.5:11", "--beta1", "0:1:21",
            "--iota", "1", "--dist", "laplace", "--draws", "200000",
            "--seed", "1", "--out-dir", tmp_path,
        )
        == 0
    )
    rows = (tmp_path / "region_scan.csv").read_text().splitlines()[1:]
    seen_boundary = 0
    grid = {}
    for row in rows:
        a, b, h = row.split(",")
        grid[(float(a), float(b))] = int(h)
    betas = sorted({b for _, b in grid})
    for a in sorted({a for a, _ in grid}):
        flips = [
            (b1, b2)
            for b1, b2 in zip(betas, betas[1:])
            if grid[(a, b1)] == 1 and grid[(a, b2)] == 0
        ]
        for b1, b2 in flips:
            # holds flips where 2*alpha1 + beta1 crosses 1
            assert 2.0 * a + b1 < 1.0 + 1e-6
            assert 2.0 * a + b2 > 1.0 - 0.06
            seen_boundary += 1
    assert seen_boundary >= 5


def test_cli_mc_table_files(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_INI)
    out = tmp_path / "mc"
    assert run_cli("mc-table", "--config", cfg, "--out-dir", out, "--jobs", "1") == 0
    table_rows = (out / "mc_table.csv").read_text().splitlines()
    assert table_rows[0] == "estimator,parameter,truth,bias,sd,ad,successes,failures"
    assert len(table_rows) == 6  # header + 5 parameters for one estimator
    reps = (out / "mc_replications.csv").read_text().splitlines()
    assert len(reps) == 4  # header + 3 replications
    # replication override flag
    out2 = tmp_path / "mc2"
    assert run_cli(
        "mc-table", "--config", cfg, "--out-dir", out2, "--jobs", "1", "--replications", "2"
    ) == 0
    assert len((out2 / "mc_replications.csv").read_text().splitlines()) == 3


def test_mc_table_aggregation_matches_persisted_file(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_INI)
    out = tmp_path / "mc"
    assert run_cli("mc-table", "--config", cfg, "--out-dir", out, "--jobs", "1") == 0
    rep_lines = (out / "mc_replications.csv").read_text().splitlines()
    header = rep_lines[0].split(",")
    est_cols = slice(3, 8)
    rows = [line.split(",") for line in rep_lines[1:]]
    est = np.array([[float(v) for v in r[est_cols]] for r in rows if r[2] == "true"])
    se_cols = slice(8, 13)
    ses = np.array([[float(v) for v in r[se_cols]] for r in rows if r[2] == "true"])
    theta0 = np.asarray(THETA_FINITE)
    table_lines = (out / "mc_table.csv").read_text().splitlines()[1:]
    bias = np.array([float(line.split(",")[3]) for line in table_lines])
    sd = np.array([float(line.split(",")[4]) for line in table_lines])
    ad = np.array([float(line.split(",")[5]) for line in table_lines])
    # emitted at 6 significant digits; recomputation must agree to that precision
    np.testing.assert_allclose(bias, est.mean(0) - theta0, rtol=2e-5, atol=2e-6)
    np.testing.assert_allclose(sd, est.std(0, ddof=1), rtol=2e-5, atol=2e-6)
    np.testing.assert_allclose(ad, ses.mean(0), rtol=2e-5, atol=2e-6)


def test_cli_fit_accepts_config_file(tmp_path):
    y = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 600, seed=99)
    data = tmp_path / "y.csv"
    data.write_text("y\n" + "\n".join(f"{x:.10g}" for x in y) + "\n")
    cfg = tmp_path / "fit.ini"
    cfg.write_text("[g0]\nmode = known\nvalue = 0.5\n\n[optimizer]\nrestarts = 1\n")
    out = tmp_path / "out"
    assert run_cli("fit", data, "--orders", "1,0,1,1", "--config", cfg, "--out-dir", out) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report[0]["g0"] == 0.5  # injected value, not a kernel estimate
    bad = tmp_path / "bad.ini"
    bad.write_text("[study]\nn = 5\n")
    assert run_cli("fit", data, "--orders", "1,0,1,1", "--config", bad, "--out-dir", out) == 3
    bad.write_text("[g0]\nmode = known\n")  # no value
    assert run_cli("fit", data, "--orders", "1,0,1,1", "--config", bad, "--out-dir", out) == 3
    bad.write_text("[g0]\nmode = knwon\nvalue = 0.5\n")  # misspelled mode
    assert run_cli("fit", data, "--orders", "1,0,1,1", "--config", bad, "--out-dir", out) == 3


def test_cli_fit_flags_build_the_fit_config(tmp_path, monkeypatch):
    # no settings flag: FitConfig's own defaults; each flag sets one field
    seen = []

    def capture(data, orders, config, criterion):
        seen.append(config)
        raise qmele.DomainError("captured")

    monkeypatch.setattr(cli, "fit_self_weighted", capture)
    data = tmp_path / "y.csv"
    data.write_text("y\n1\n2\n3\n")
    fit = ("fit", data, "--orders", "1,0,1,1", "--out-dir", tmp_path)
    assert run_cli(*fit) == 3
    assert run_cli(*fit, "--seed", "3", "--weight-variant", "infinite_iota_scaled", "--iota", "0.5",
                   "--c-quantile", "0.8", "--weight-threshold", "absolute", "--g0-known", "0.5",
                   "--restarts", "2") == 3
    assert seen == [
        qmele.FitConfig(seed=0),
        qmele.FitConfig(qmele.WeightSpec("infinite_iota_scaled", 0.5, 0.8, "absolute"), 2, qmele.G0Mode.known(0.5), 3),
    ]


def test_cli_fit_config_rejects_simplex_tolerance(tmp_path, capsys):
    # the exponential fit has no simplex polish and no iteration cap to set,
    # so both retired keys are unknown and the --max-iter flag is gone
    y = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 300, seed=98)
    data = tmp_path / "y.csv"
    data.write_text("y\n" + "\n".join(f"{x:.10g}" for x in y) + "\n")
    cfg = tmp_path / "fit.ini"
    out = tmp_path / "out"
    for key, value in (("simplex_tolerance", "1e-7"), ("max_iter", "10")):
        cfg.write_text(f"[optimizer]\n{key} = {value}\n")
        assert run_cli("fit", data, "--orders", "1,0,1,1", "--config", cfg, "--out-dir", out) == 3
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not (out / "fit_report.json").exists()
    with pytest.raises(SystemExit) as exc:
        run_cli("fit", data, "--orders", "1,0,1,1", "--max-iter", "10", "--out-dir", out)
    assert exc.value.code == 2
    assert not (out / "fit_report.json").exists()


def simulate_beta_face_path(tmp_path):
    # beta1 = 0: the self-weighted fit ends on the beta1 = 0 face
    assert run_cli(
        "simulate", "--orders", "1,0,1,1", "--theta", "0,0.5,0.1,0.3,0",
        "--dist", "laplace", "--n", "600", "--seed", "1", "--out-dir", tmp_path,
    ) == 0
    return tmp_path / "simulated.csv"


def test_cli_fit_holds_beta_face_in_local_step(tmp_path):
    out = tmp_path / "out"
    assert run_cli("fit", simulate_beta_face_path(tmp_path), "--orders", "1,0,1,1", "--out-dir", out) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert [r["estimator"] for r in report] == ["sw_qmele", "local_qmele"]
    assert [r["estimates"]["beta1"] for r in report] == [0.0, 0.0]
    assert [r["status"] for r in report] == ["ok", "ok"]
    cert = report[0]["certificate"]
    assert cert["certified"] is True and cert["max_s"] <= 1.0 and len(cert["active"]) == 2
    assert report[1]["certificate"] is None


def test_cli_fit_reports_sw_fit_when_local_step_fails(tmp_path, capsys, monkeypatch):
    import qmele.estimation

    # only the one-step forms the score vector; a NaN one leaves no halving of the step feasible
    monkeypatch.setattr(qmele.estimation, "_score", lambda out, crit, active=(): np.full(out.deps.shape[1], np.nan))
    out = tmp_path / "out"
    assert run_cli("fit", simulate_beta_face_path(tmp_path), "--orders", "1,0,1,1", "--out-dir", out) == 0
    assert capsys.readouterr().err == "local_qmele fit: status infeasible_step\n"
    report = json.loads((out / "fit_report.json").read_text())
    assert [r["estimator"] for r in report] == ["sw_qmele", "local_qmele"]
    assert [(r["converged"], r["status"]) for r in report] == [(True, "ok"), (False, "infeasible_step")]
    assert report[1]["estimates"] == report[0]["estimates"]
    assert all(np.isnan(v) for v in report[1]["std_errors"].values())
    text = (out / "fit_report.txt").read_text()
    assert text.startswith("== sw ==") and "== local ==" in text
    for name in ("residuals.csv", "acf_eta.csv", "pacf_eta_sq.csv", "hill_eta_sq.csv"):
        assert (out / name).exists()


def test_cli_fit_log_returns_path(tmp_path):
    # prices built from a simulated return series: the fit sees the returns
    y = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 601, seed=77)
    prices = np.exp(np.cumsum(np.concatenate([[0.0], y])) / 100.0)
    path = tmp_path / "prices.csv"
    path.write_text("p\n" + "\n".join(f"{x:.12g}" for x in prices) + "\n")
    out = tmp_path / "fit"
    assert (
        run_cli(
            "fit", path, "--orders", "1,0,1,1", "--log-returns-x100",
            "--g0-known", "0.5", "--restarts", "1", "--out-dir", out, "--seed", "2",
        )
        == 0
    )
    report = json.loads((out / "fit_report.json").read_text())
    sw = next(r for r in report if r["estimator"] == "sw_qmele")
    assert sw["n"] == 601
    assert sw["converged"]
    est = sw["estimates"]
    se = sw["std_errors"]
    for name, truth in zip(["mu", "phi1", "alpha0", "alpha1", "beta1"], THETA_FINITE):
        assert abs(est[name] - truth) <= 5.0 * se[name]
    for fname in [
        "fit_report.txt", "residuals.csv", "acf_eta.csv", "pacf_eta.csv",
        "acf_eta_sq.csv", "pacf_eta_sq.csv", "hill_eta_sq.csv",
    ]:
        assert (out / fname).exists()
