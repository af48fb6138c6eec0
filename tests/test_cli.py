"""Tests for the command-line harness."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import mirrorsobol
from mirrorsobol.cli import (
    ConfigError,
    CsvFormatError,
    RunConfig,
    _build_parser,
    load_sample_csv,
    main,
    run,
)
from mirrorsobol.errors import MirrorSobolError
from mirrorsobol.estimator import FullSample, SubsetSpec, estimate_sobol
from mirrorsobol import testbed
from mirrorsobol.kernels import build_kernel
from mirrorsobol.testbed import linear_model


def _cfg(**over):
    base = dict(command="estimate", model="linear3", n=200, seed=0, mask=(1,), h=0.2)
    base.update(over)
    return RunConfig.from_json(base)


def _field_of(excinfo):
    return getattr(excinfo.value, "field", None)


# ------------------------------------------------------------------
# RunConfig validation and serialization
# ------------------------------------------------------------------


def test_config_roundtrip_simple():
    cfg = _cfg()
    back = RunConfig.from_json(cfg.to_json())
    assert back == cfg, f"round trip changed the config: {back} vs {cfg}"


def test_config_roundtrip_through_json_text():
    cfg = _cfg(
        command="convergence",
        n=None,
        h=None,
        rule=(1.0, 0.4),
        n_grid=(200, 400),
        seeds=7,
        estimators=("kernel", "pf"),
        threads=3,
    )
    text = json.dumps(cfg.to_json(), sort_keys=True)
    back = RunConfig.from_json(json.loads(text))
    assert back == cfg, "config must survive a full JSON text round trip"


def test_config_roundtrip_plugin_density():
    cfg = _cfg(density={"plugin": {"mirror_kde": {"eta": 0.5, "h": 0.2, "m": 100}}})
    assert RunConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize(
    "over, field",
    [
        (dict(command="nope"), "command"),
        (dict(model=None), "input"),
        (dict(csv="x.csv"), "input"),  # both sources set
        (dict(n=1), "n"),
        (dict(n=None), "n"),
        (dict(seed=-1), "seed"),
        (dict(mask=()), "mask"),
        (dict(mask=(0,)), "mask"),
        (dict(mask=(1, 1)), "mask"),
        (dict(kernel_order=0), "kernel_order"),
        (dict(kernel_base="uniform"), "kernel_base"),  # a field configs no longer carry
        (dict(h=None), "bandwidth"),  # no mode at all
        (dict(auto=True), "bandwidth"),  # two modes
        (dict(h=-0.1), "bandwidth"),
        (dict(h=None, rule=(1.0, 1.5)), "bandwidth"),
        (dict(density="nope"), "density"),
        (dict(density={"plugin": "nope"}), "density"),
        (dict(density={"plugin": {"beta_moment": {}}}), "density"),
        (dict(density={"plugin": {"mirror_kde": {"h": 0.1}}}), "density"),
        (dict(ci_level=1.0), "ci_level"),
        (dict(threads=0), "threads"),
        (dict(n_grid=(400, 200)), "n_grid"),
        (dict(model="unknown_model"), "model"),
        (dict(marginals={"marginals": [{"uniform": [0, 1]}]}), "marginals"),
        (dict(kernel_order=11), "kernel_order"),  # above kernels.MAX_ORDER
    ],
)
def test_config_errors_name_the_field(over, field):
    with pytest.raises(ConfigError) as excinfo:
        _cfg(**over)
    assert _field_of(excinfo) == field, f"expected field {field!r}, got {_field_of(excinfo)!r}"


@pytest.mark.parametrize("threads", [0, -5, 257, 10**6])
def test_threads_guard_fails_before_any_pool(threads, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    monkeypatch.setattr(testbed, "ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    args = [
        "compare", "--model", "linear3", "--n", "200", "--mask", "1", "--h", "0.2",
        "--seeds", "4", "--estimators", "kernel,nn", "--threads", str(threads),
    ]
    code = main(args)
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2, f"an out-of-range thread count must fail at parse time, got exit {code}"
    assert error["field"] == "threads" and "--threads" in error["message"], error
    assert threading.active_count() == before, "the guard must start no threads"


def test_threads_ceiling_is_accepted():
    assert _cfg(threads=256).threads == 256


def test_config_study_constraints():
    with pytest.raises(ConfigError) as e1:
        _cfg(command="convergence", n=None)
    assert _field_of(e1) == "n_grid"
    with pytest.raises(ConfigError) as e2:
        _cfg(command="coverage", h=None, auto=True, n_grid=(200,))
    assert _field_of(e2) == "bandwidth", "auto bandwidth must be rejected for studies"
    with pytest.raises(ConfigError) as e3:
        RunConfig(command="compare", csv="x.csv", mask=(1,), h=0.2, n=100)
    assert _field_of(e3) == "input", "studies need a builtin model"
    with pytest.raises(ConfigError) as e4:
        _cfg(command="compare", estimators=("kernel", "mystery"))
    assert _field_of(e4) == "estimators"


def test_from_json_rejects_unknown_and_missing_fields():
    with pytest.raises(ConfigError) as e1:
        RunConfig.from_json({"command": "estimate", "model": "linear3", "n": 100, "mask": [1], "h": 0.2, "zz": 1})
    assert _field_of(e1) == "zz"
    with pytest.raises(ConfigError) as e2:
        RunConfig.from_json({"model": "linear3"})
    assert _field_of(e2) == "command"


def test_config_normalizes_mask_order():
    cfg = _cfg(mask=(3, 1), model="linear3")
    assert cfg.mask == (1, 3), f"mask should be sorted, got {cfg.mask}"


# ------------------------------------------------------------------
# sample CSV loading
# ------------------------------------------------------------------


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_roundtrip(tmp_path):
    path = _write(tmp_path, "s.csv", "v1,v2,y\n0.1,0.2,1.5\n0.3,0.4,2.5\n0.5,0.6,3.5\n")
    fs = load_sample_csv(path)
    assert fs.n == 3 and fs.p == 2
    assert np.array_equal(fs.V, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), "row order must be preserved"
    assert np.array_equal(fs.Y, [1.5, 2.5, 3.5])


def test_load_csv_header_mismatch(tmp_path):
    path = _write(tmp_path, "s.csv", "x1,x2,y\n0.1,0.2,1.5\n0.3,0.4,2.5\n")
    with pytest.raises(CsvFormatError) as excinfo:
        load_sample_csv(path)
    assert excinfo.value.line == 1, f"header error should point at line 1, got {excinfo.value.line}"


def test_load_csv_bad_float_line_number(tmp_path):
    path = _write(tmp_path, "s.csv", "v1,y\n0.1,1.5\n0.2,oops\n0.3,2.5\n")
    with pytest.raises(CsvFormatError) as excinfo:
        load_sample_csv(path)
    assert excinfo.value.line == 3, f"parse error is on line 3, got {excinfo.value.line}"


def test_load_csv_rejects_non_finite(tmp_path):
    path = _write(tmp_path, "s.csv", "v1,y\n0.1,1.5\n0.2,NaN\n")
    with pytest.raises(CsvFormatError) as excinfo:
        load_sample_csv(path)
    assert excinfo.value.line == 3
    path2 = _write(tmp_path, "s2.csv", "v1,y\n0.1,inf\n0.2,1.0\n")
    with pytest.raises(CsvFormatError) as excinfo2:
        load_sample_csv(path2)
    assert excinfo2.value.line == 2


def test_load_csv_field_count(tmp_path):
    path = _write(tmp_path, "s.csv", "v1,v2,y\n0.1,0.2,1.5\n0.3,0.4\n")
    with pytest.raises(CsvFormatError) as excinfo:
        load_sample_csv(path)
    assert excinfo.value.line == 3


def test_load_csv_tolerates_trailing_blank_line(tmp_path):
    path = _write(tmp_path, "s.csv", "v1,y\n0.1,1.0\n0.2,2.0\n\n")
    assert load_sample_csv(path).n == 2


# ------------------------------------------------------------------
# estimate command, end to end
# ------------------------------------------------------------------


def test_estimate_builtin_linear(tmp_path, capsys):
    out = str(tmp_path / "est.json")
    cfg = RunConfig(command="estimate", model="linear3", n=3000, seed=1, mask=(1,), h=0.2, output=out)
    code = run(cfg)
    assert code == 0, f"estimate should succeed, got exit {code}: {capsys.readouterr().out}"
    obj = json.loads(open(out).read())
    assert obj["schema_version"] == 1
    assert RunConfig.from_json(obj["config"]) == cfg, "artifact must embed the exact config"
    res = obj["result"]
    assert abs(res["sobol"] - 1.0 / 3.0) < 0.05, f"linear3 first index {res['sobol']} vs 1/3"
    lo, hi = res["ci"]
    assert lo < res["sobol"] < hi, f"CI {res['ci']} should bracket the point estimate {res['sobol']}"
    assert obj["density"] == {"kind": "exact"}
    assert obj["bandwidth"] == {"mode": "fixed", "h": 0.2}


def test_estimate_csv_matches_library_call(tmp_path):
    rng = np.random.default_rng(11)
    v = rng.uniform(0.0, 1.0, (300, 2))
    y = v[:, 0] + 2.0 * v[:, 1]
    lines = ["v1,v2,y"] + [f"{a!r},{b!r},{c!r}" for a, b, c in np.column_stack([v, y]).tolist()]
    csv_path = _write(tmp_path, "s.csv", "\n".join(lines) + "\n")
    out = str(tmp_path / "est.json")
    marg = {"marginals": [{"uniform": [0, 1]}, {"uniform": [0, 1]}]}
    cfg = RunConfig(command="estimate", csv=csv_path, mask=(2,), h=0.25, marginals=marg, output=out)
    assert run(cfg) == 0
    obj = json.loads(open(out).read())

    from mirrorsobol.inputs import input_model_from_json

    direct = estimate_sobol(
        FullSample(V=v, Y=y), SubsetSpec((1,)), build_kernel(2), 0.25, input_model_from_json(marg)
    )
    assert obj["result"]["t_hat"] == direct.t_hat, "CLI must reproduce the library call exactly"
    assert obj["result"]["sobol"] == direct.sobol


def test_estimate_rule_bandwidth(tmp_path):
    out = str(tmp_path / "est.json")
    cfg = RunConfig(command="estimate", model="linear3", n=500, mask=(1,), rule=(1.0, 0.4), output=out)
    assert run(cfg) == 0
    obj = json.loads(open(out).read())
    want = 500.0 ** (-0.4)
    assert abs(obj["result"]["h"] - want) < 1e-12, f"rule h {obj['result']['h']} vs {want}"
    assert obj["bandwidth"]["mode"] == "rule"


def test_estimate_auto_bandwidth(tmp_path):
    out = str(tmp_path / "est.json")
    cfg = RunConfig(command="estimate", model="linear3", n=400, seed=2, mask=(1,), auto=True, output=out)
    assert run(cfg) == 0
    obj = json.loads(open(out).read())
    assert obj["bandwidth"]["mode"] == "auto"
    assert obj["result"]["h"] == obj["bandwidth"]["h"] > 0


def _beta_csv(tmp_path, n, shape):
    # v1 ~ Beta(shape), v2 ~ U(0, 1), y = v1 + v2
    rng = np.random.default_rng(11)
    v = np.column_stack([rng.beta(*shape, n), rng.random(n)])
    lines = ["v1,v2,y"] + [f"{a!r},{b!r},{a + b!r}" for a, b in v.tolist()]
    return _write(tmp_path, "beta.csv", "\n".join(lines) + "\n")


def test_estimate_auto_with_beta_marginal_on_the_mask(tmp_path):
    shape = (1.2, 1.4)
    csv_path = _beta_csv(tmp_path, 2000, shape)
    marginals = json.dumps({"marginals": [{"beta": list(shape)}, {"uniform": [0, 1]}]})
    out = str(tmp_path / "est.json")
    argv = ["estimate", "--csv", csv_path, "--mask", "1", "--auto", "--marginals", marginals, "--output", out]
    assert main(argv) == 0
    obj = json.loads(open(out).read())
    assert obj["bandwidth"]["mode"] == "auto" and obj["bandwidth"]["target"] > 0
    a, b = shape
    var1 = a * b / ((a + b) ** 2 * (a + b + 1))
    truth = var1 / (var1 + 1.0 / 12.0)
    res = obj["result"]
    se = math.sqrt(res["var_sobol"] / 2000)
    assert abs(res["sobol"] - truth) < 5 * se, f"sobol {res['sobol']} vs truth {truth} (se {se})"


def test_estimate_auto_reports_infinite_pilot_target(tmp_path, capsys):
    csv_path = _beta_csv(tmp_path, 50, (2.5, 1.2))
    marginals = json.dumps({"marginals": [{"beta": [2.5, 1.2]}, {"uniform": [0, 1]}]})
    argv = ["estimate", "--csv", csv_path, "--mask", "1", "--auto", "--marginals", marginals]
    assert main(argv + ["--output", str(tmp_path / "est.json")]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "PilotTargetError"
    assert "axis 0" in err["message"] and "--h or --rule" in err["message"]
    # the suggested way out works
    assert main(argv[:5] + ["--h", "0.2", "--marginals", marginals, "--output", str(tmp_path / "h.json")]) == 0


def test_estimate_auto_with_a_narrow_axis_off_the_mask(tmp_path):
    # v1 ~ U(0, 1), v2 ~ U(0, 0.1), y = v1 + 10 v2: S1 = 1/2; the grid runs up
    # to the mask axis's width, ten times the off-mask one
    rng = np.random.default_rng(13)
    n = 1000
    v = rng.random((n, 2)) * np.array([1.0, 0.1])
    lines = ["v1,v2,y"] + [f"{a!r},{b!r},{a + 10.0 * b!r}" for a, b in v.tolist()]
    csv_path = _write(tmp_path, "narrow.csv", "\n".join(lines) + "\n")
    marginals = json.dumps({"marginals": [{"uniform": [0, 1]}, {"uniform": [0, 0.1]}]})
    out = str(tmp_path / "est.json")
    argv = ["estimate", "--csv", csv_path, "--mask", "1", "--auto", "--marginals", marginals, "--output", out]
    assert main(argv) == 0
    obj = json.loads(open(out).read())
    assert obj["bandwidth"]["mode"] == "auto" and 0.0 < obj["bandwidth"]["h"] <= 1.0
    res = obj["result"]
    se = math.sqrt(res["var_sobol"] / n)
    assert abs(res["sobol"] - 0.5) < 5 * se, f"sobol {res['sobol']} vs truth 0.5 (se {se})"


def test_estimate_uniform_max_plugin_csv(tmp_path):
    # inputs uniform on [0, 0.8]; the plug-in should recover theta ~ 0.8
    rng = np.random.default_rng(5)
    v = rng.uniform(0.0, 0.8, (400, 1))
    y = 2.0 * v[:, 0]
    lines = ["v1,y"] + [f"{a!r},{b!r}" for a, b in np.column_stack([v, y]).tolist()]
    csv_path = _write(tmp_path, "s.csv", "\n".join(lines) + "\n")
    out = str(tmp_path / "est.json")
    cfg = RunConfig(
        command="estimate", csv=csv_path, mask=(1,), h=0.1, density={"plugin": "uniform_max"}, output=out
    )
    assert run(cfg) == 0
    obj = json.loads(open(out).read())
    theta = obj["density"]["params"]["theta_hat"]
    assert theta == float(v.max()), f"theta_hat {theta} must be the sample max {v.max()}"
    assert abs(obj["result"]["sobol"] - 1.0) < 0.1, f"Y is a function of V1 alone; sobol {obj['result']['sobol']}"


def test_estimate_mirror_kde_plugin_builtin(tmp_path):
    out = str(tmp_path / "est.json")
    cfg = RunConfig(
        command="estimate",
        model="linear3",
        n=2000,
        seed=3,
        mask=(1,),
        h=0.25,
        density={"plugin": {"mirror_kde": {"eta": 0.5}}},
        output=out,
    )
    assert run(cfg) == 0
    obj = json.loads(open(out).read())
    assert obj["density"]["kind"] == "mirror_kde"
    assert abs(obj["result"]["sobol"] - 1.0 / 3.0) < 0.2, f"kde-plug-in sobol {obj['result']['sobol']} vs 1/3"


def test_exact_density_needs_marginals_for_csv(tmp_path, capsys):
    csv_path = _write(tmp_path, "s.csv", "v1,y\n0.1,1.0\n0.2,2.0\n0.3,1.5\n")
    cfg = RunConfig(command="estimate", csv=csv_path, mask=(1,), h=0.05)
    assert run(cfg) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["field"] == "marginals", f"error should name marginals, got {err}"


def test_run_error_json_names_field(tmp_path, capsys):
    csv_path = _write(tmp_path, "s.csv", "v1,y\n0.1,1.0\n0.2,2.0\n")
    marg = {"marginals": [{"uniform": [0, 1]}]}
    cfg = RunConfig(command="estimate", csv=csv_path, mask=(2,), h=0.05, marginals=marg)
    assert run(cfg) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["error"]["field"] == "mask"
    assert payload["error"]["type"] == "ConfigError"


def test_run_error_json_carries_csv_line(tmp_path, capsys):
    csv_path = _write(tmp_path, "s.csv", "v1,y\n0.1,bad\n")
    marg = {"marginals": [{"uniform": [0, 1]}]}
    cfg = RunConfig(command="estimate", csv=csv_path, mask=(1,), h=0.05, marginals=marg)
    assert run(cfg) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["line"] == 2 and err["type"] == "CsvFormatError"


def test_run_missing_csv_file_is_reported(tmp_path, capsys):
    cfg = RunConfig(command="estimate", csv=str(tmp_path / "none.csv"), mask=(1,), h=0.05)
    assert run(cfg) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert "none.csv" in err["message"]


# ------------------------------------------------------------------
# bandwidth command
# ------------------------------------------------------------------


def test_bandwidth_command(tmp_path):
    out = str(tmp_path / "bw.json")
    cfg = RunConfig(command="bandwidth", model="linear3", n=400, seed=3, mask=(1,), auto=True, output=out)
    assert run(cfg) == 0
    obj = json.loads(open(out).read())
    curve = obj["objective_curve"]
    assert len(curve) == 25, f"default grid has 25 candidates, got {len(curve)}"
    hs = [pt[0] for pt in curve]
    assert hs == sorted(hs) and obj["h_star"] in hs
    best = min(curve, key=lambda pt: pt[1])
    assert best[0] == obj["h_star"], f"h_star {obj['h_star']} should minimize the curve (min at {best[0]})"
    assert obj["target"] > 0
    # both target normalizations are reported; the restricted-range one is about half
    ratio = obj["target_printed"] / obj["target"]
    assert 0.3 < ratio < 0.7, f"printed/full target ratio {ratio} should sit near one half"


# ------------------------------------------------------------------
# study commands
# ------------------------------------------------------------------


def _read_table(path):
    lines = open(path).read().splitlines()
    assert lines[0].startswith("# schema_version=1 config="), f"missing config comment: {lines[0][:40]}"
    cfg = RunConfig.from_json(json.loads(lines[0].split("config=", 1)[1]))
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        if line.startswith("#"):
            continue
        rows.append(dict(zip(header, line.split(","))))
    return cfg, header, rows, lines


def test_convergence_command(tmp_path):
    out = str(tmp_path / "conv.csv")
    cfg = RunConfig(
        command="convergence",
        model="linear3",
        mask=(1,),
        rule=(1.0, 0.4),
        n_grid=(200, 400),
        seeds=4,
        output=out,
    )
    assert run(cfg) == 0
    embedded, header, rows, lines = _read_table(out)
    assert embedded == cfg
    assert header == [
        "model", "mask", "estimator", "n", "h", "seed_count", "mean", "rmse", "var_scaled_by_n", "coverage",
    ]
    assert len(rows) == 4, f"2 sizes x (kernel_t, kernel_sobol) = 4 rows, got {len(rows)}"
    assert {r["estimator"] for r in rows} == {"kernel_t", "kernel_sobol"}
    assert all(r["model"] == "linear3" and r["mask"] == "1" and r["seed_count"] == "4" for r in rows)
    slopes = [ln for ln in lines if ln.startswith("# slope")]
    assert len(slopes) == 2, f"one slope comment per estimator, got {slopes}"


def test_coverage_command(tmp_path):
    out = str(tmp_path / "cov.csv")
    cfg = RunConfig(
        command="coverage", model="linear3", n=300, mask=(1,), h=0.25, seeds=12, output=out
    )
    assert run(cfg) == 0
    _, _, rows, _ = _read_table(out)
    assert len(rows) == 1
    cov = float(rows[0]["coverage"])
    assert 0.0 <= cov <= 1.0, f"coverage {cov} out of [0, 1]"


def test_cli_start_and_coverage_run_leave_scipy_stats_unloaded(tmp_path):
    # importing scipy.stats costs about 0.7 s, and scipy.spatial and
    # scipy.special about 0.5 s: the import and the default paths (1-D and
    # 2-D sums, the pilot, the nearest neighbours in 1-D, the interval) run
    # on numpy and the standard library; a Beta marginal loads scipy.special
    runs = [
        ["coverage", "--model", "product", "--n", "200", "--mask", "1,2", "--h", "0.3", "--seeds", "3"],
        ["estimate", "--model", "linear3", "--n", "400", "--mask", "1", "--auto"],
        ["coverage", "--model", "product", "--n", "400", "--mask", "1,2", "--h", "0.06", "--seeds", "3"],
        ["compare", "--model", "linear3", "--n", "400", "--mask", "1", "--rule", "1.0", "0.4", "--seeds", "3"]
        + ["--estimators", "kernel,pf,nn,rank"],
    ]
    lines = ["import sys", "from mirrorsobol import cli", "assert 'scipy' not in sys.modules, 'loaded by the import'"]
    for i, argv in enumerate(runs):
        argv = argv + ["--output", str(tmp_path / f"run{i}.out")]
        lines += [f"assert cli.main({argv!r}) == 0", f"assert 'scipy' not in sys.modules, 'loaded by {argv[0]}'"]
    marginals = json.dumps({"marginals": [{"beta": [1.2, 1.4]}, {"uniform": [0, 1]}]})
    beta = ["estimate", "--csv", _beta_csv(tmp_path, 200, (1.2, 1.4)), "--mask", "1", "--h", "0.2"]
    beta += ["--marginals", marginals, "--output", str(tmp_path / "beta.json")]
    lines += [f"assert cli.main({beta!r}) == 0", "assert 'scipy.special' in sys.modules"]
    src = os.path.dirname(os.path.dirname(mirrorsobol.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "\n".join(lines)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert all(os.path.exists(tmp_path / f"run{i}.out") for i in range(len(runs)))
    assert os.path.exists(tmp_path / "beta.json")


def test_compare_command_limiting_variances(tmp_path):
    out = str(tmp_path / "cmp.csv")
    cfg = RunConfig(
        command="compare",
        model="linear3",
        n=300,
        mask=(1,),
        h=0.25,
        seeds=4,
        estimators=("kernel", "pf", "nn", "rank"),
        output=out,
    )
    assert run(cfg) == 0
    _, header, rows, _ = _read_table(out)
    assert header[-1] == "limiting_variance"
    cells = {r["estimator"]: r["limiting_variance"] for r in rows}
    # hand integrations on linear p=3, first axis: 4 tau^2 = 4 * 103/90, centered sigma^2 = 32/45
    assert abs(float(cells["kernel_t"]) - 4.0 * 103.0 / 90.0) < 1e-6, f"kernel_t limit {cells['kernel_t']}"
    assert abs(float(cells["kernel_sobol"]) - 32.0 / 45.0) < 1e-6, f"kernel_sobol limit {cells['kernel_sobol']}"
    assert float(cells["nn_t"]) > 0
    assert cells["pf"] == "" and cells["rank"] == "", "no CLT constant is claimed for pf/rank"


# ------------------------------------------------------------------
# determinism and the entry point
# ------------------------------------------------------------------


def test_repeat_run_byte_identical(tmp_path):
    out = str(tmp_path / "est.json")
    cfg = RunConfig(command="estimate", model="linear3", n=300, seed=9, mask=(1,), h=0.2, output=out)
    assert run(cfg) == 0
    first = open(out, "rb").read()
    assert run(cfg) == 0
    second = open(out, "rb").read()
    assert first == second, "same config must produce byte-identical output"


def test_threads_do_not_change_study_bytes(tmp_path):
    def table(threads):
        out = str(tmp_path / f"cmp{threads}.csv")
        cfg = RunConfig(
            command="compare",
            model="linear3",
            n=200,
            mask=(1,),
            h=0.25,
            seeds=6,
            estimators=("kernel", "pf"),
            threads=threads,
            output=out,
        )
        assert run(cfg) == 0
        data = open(out, "rb").read()
        assert run(cfg) == 0
        assert open(out, "rb").read() == data, f"repeat at threads={threads} changed bytes"
        return data

    one, eight = table(1), table(8)
    # identical apart from the two config fields that legitimately differ
    swapped = eight.replace(b'"threads":8', b'"threads":1').replace(b"cmp8.csv", b"cmp1.csv")
    assert one == swapped, "thread count must not change any computed value"


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MIRRORSOBOL_OUTPUT_DIR", str(tmp_path))
    cfg = RunConfig(command="estimate", model="linear3", n=200, mask=(1,), h=0.2)
    assert run(cfg) == 0
    assert os.path.exists(tmp_path / "estimate.json"), "default output should land in the env dir"


def test_main_argv_roundtrip(tmp_path):
    out = str(tmp_path / "est.json")
    code = main(
        ["estimate", "--model", "linear3", "--n", "300", "--seed", "4", "--mask", "1",
         "--rule", "1.0", "0.4", "--output", out]
    )
    assert code == 0
    obj = json.loads(open(out).read())
    assert obj["config"]["rule"] == [1.0, 0.4]
    assert obj["config"]["mask"] == [1]


@pytest.mark.parametrize(
    "command, sizes",
    [("convergence", ["--n-grid", "100,200"]), ("coverage", ["--n", "200"]), ("compare", ["--n", "200"])],
)
def test_studies_reject_a_seed(command, sizes, tmp_path, capsys):
    # studies always run seeds 0..seeds-1; a passed seed would be recorded but unused
    argv = [command, "--model", "linear3", "--mask", "1", "--rule", "1.0", "0.3", "--seeds", "2"] + sizes
    code = main(argv + ["--seed", "3", "--output", str(tmp_path / "study.csv")])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["field"] == "seed"
    assert not (tmp_path / "study.csv").exists()


def test_coverage_takes_an_n_grid_without_n(tmp_path):
    out = tmp_path / "cov.csv"
    argv = ["coverage", "--model", "linear3", "--n-grid", "300,600", "--mask", "2", "--h", "0.2", "--seeds", "10"]
    assert main(argv + ["--output", str(out)]) == 0
    _, _, rows, _ = _read_table(str(out))
    assert [r["n"] for r in rows] == ["300", "600"], rows


@pytest.mark.parametrize(
    "argv",
    [
        # rank estimates one-axis masks only
        ["compare", "--model", "product", "--mask", "1,2", "--n", "2000", "--rule", "1.0", "0.375"]
        + ["--seeds", "20", "--estimators", "kernel,pf,nn,rank"],
        # coverage forms intervals from the kernel estimator only
        ["coverage", "--model", "linear3", "--mask", "1", "--n", "200", "--h", "0.2", "--estimators", "pf,nn"],
    ],
)
def test_study_estimators_are_checked_before_any_replicate(argv, tmp_path, monkeypatch, capsys):
    def no_replicate(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(testbed, "estimate_sobol", no_replicate)
    code = main(argv + ["--output", str(tmp_path / "study.csv")])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["field"] == "estimators"
    assert not (tmp_path / "study.csv").exists()


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("compare", "n_grid", [300, 600]),
        ("compare", "variance_scale", 0.5),
        ("convergence", "variance_scale", 0.5),
        ("estimate", "seeds", 5),
        ("estimate", "estimators", ["kernel", "pf"]),
        ("estimate", "n_grid", [300]),
        ("estimate", "variance_scale", 0.5),
        ("bandwidth", "seeds", 5),
        ("bandwidth", "estimators", ["nn"]),
        ("bandwidth", "n_grid", [300]),
        ("bandwidth", "variance_scale", 2.0),
    ],
)
def test_fields_a_command_does_not_read_are_config_errors(command, field, value, tmp_path, monkeypatch, capsys):
    # recorded in the artifact, an unread field would read as if it were used
    def no_replicate(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(testbed, "estimate_sobol", no_replicate)
    base = {"command": command, "model": "linear3", "n": 200, "mask": [1], "h": 0.2}
    if command == "convergence":
        base.update(n=None, n_grid=[200])
    with pytest.raises(ConfigError) as excinfo:
        RunConfig.from_json(dict(base, **{field: value}))
    assert _field_of(excinfo) == field and command in str(excinfo.value)
    assert RunConfig.from_json(base).command == command  # the defaults alone are accepted
    if command == "compare" and field == "n_grid":
        out = tmp_path / "cmp.csv"
        argv = ["compare", "--model", "linear3", "--n", "200", "--mask", "1", "--h", "0.2", "--n-grid", "300,600"]
        assert main(argv + ["--output", str(out)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["field"] == "n_grid"
        assert not out.exists()


def test_unset_flags_leave_the_defaults_to_run_config():
    args = _build_parser().parse_args(["coverage", "--model", "linear3", "--n", "200", "--mask", "1", "--h", "0.2"])
    assert vars(args) == {"command": "coverage", "model": "linear3", "n": 200, "mask": (1,), "h": 0.2}


def test_main_reports_config_errors(capsys):
    code = main(["estimate", "--model", "linear3", "--mask", "1", "--h", "0.2"])  # n missing
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["field"] == "n", f"missing n should be named, got {err}"
