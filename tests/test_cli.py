"""Tests for the command-line harness."""

import dataclasses
import importlib.util
import json
import math
import os
import runpy
import subprocess
import sys

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
from mirrorsobol import cli, testbed
from mirrorsobol.bandwidth import bandwidth_curve
from mirrorsobol.kernels import build_kernel
from mirrorsobol.testbed import linear_model, model_by_name


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
    forks = []

    def refused_fork():
        forks.append(os.getpid())
        raise AssertionError("the guard must start no worker process")

    monkeypatch.setattr(os, "fork", refused_fork)
    args = [
        "compare", "--model", "linear3", "--n", "200", "--mask", "1", "--h", "0.2",
        "--seeds", "4", "--estimators", "kernel,nn", "--threads", str(threads),
    ]
    code = main(args)
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2, f"an out-of-range thread count must fail at parse time, got exit {code}"
    assert error["field"] == "threads" and "--threads" in error["message"], error
    assert forks == [], "the guard must start no worker process"


def test_threads_ceiling_is_accepted():
    assert _cfg(command="compare", threads=256).threads == 256


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


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    # spreadsheet exports often begin with one; it read as part of "v1"
    text = "v1,v2,y\n0.1,0.2,1.5\n0.3,0.4,2.5\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    fs = load_sample_csv(str(path))
    assert np.array_equal(fs.V, load_sample_csv(_write(tmp_path, "plain.csv", text)).V)
    assert np.array_equal(fs.Y, [1.5, 2.5])


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


@pytest.mark.parametrize(
    "second",
    [
        {"uniform": 5},  # not a pair: was a TypeError traceback
        {"uniform": [0]},  # one entry: was an IndexError traceback
        {"uniform": ["0", "1"]},  # strings were read as numbers
        {"uniform": [True, 2]},  # was read as Uniform(1, 2)
        {"uniform": [0, 1, 2]},  # the third entry was dropped
        {"beta": [math.inf, 1]},  # Infinity in the JSON: failed only later, on the density
        {"beta": [2, 10**400]},  # an int past the floats
        {"uniform": [1, 0]},
    ],
)
def test_a_malformed_marginal_is_a_config_error_naming_its_index(tmp_path, capsys, second):
    csv_path = _write(tmp_path, "s.csv", "v1,v2,y\n0.1,0.2,1.0\n0.4,0.5,2.0\n0.8,0.3,1.5\n")
    marginals = json.dumps({"marginals": [{"uniform": [0, 1]}, second]})
    argv = ["estimate", "--csv", csv_path, "--mask", "1", "--h", "0.2", "--marginals", marginals]
    assert main(argv + ["--output", str(tmp_path / "est.json")]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ConfigError" and err["field"] == "marginals"
    assert "marginal 1: " in err["message"], err["message"]
    assert not (tmp_path / "est.json").exists()


_PAST_THE_FLOATS = "1" + "0" * 400  # a 401-digit JSON integer: float() raises OverflowError


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--h", _PAST_THE_FLOATS], "h"),
        (["--h", "0.2", "--ci-level", _PAST_THE_FLOATS], "ci_level"),
        (["--rule", _PAST_THE_FLOATS, "0.4"], "rule"),
        (["--h", "0.2", "--density", '{"plugin": {"mirror_kde": {"eta": %s}}}' % _PAST_THE_FLOATS], "density"),
        (["--h", "0.2", "--density", '{"plugin": {"mirror_kde": {"eta": 0.5, "h": %s}}}' % _PAST_THE_FLOATS], "density"),
        (["--h", "0.2", "--density", '{"plugin": {"beta_moment": {"b": %s}}}' % _PAST_THE_FLOATS], "density"),
        (["--h", "NaN"], "h"),
    ],
)
def test_config_reals_past_the_floats_are_config_errors(flags, field, tmp_path, capsys):
    # was a bare OverflowError traceback from float()
    out = tmp_path / "artifact"
    assert main(["estimate", "--model", "linear3", "--n", "200", "--mask", "1", *flags, "--output", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError" and error["field"] == field, error
    assert not out.exists()
    argv = ["coverage", "--model", "linear3", "--n", "200", "--mask", "1", "--h", "0.2", "--variance-scale", _PAST_THE_FLOATS]
    assert main(argv + ["--output", str(out)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["field"] == "variance_scale"


@pytest.mark.parametrize("mode", [["--h", "0.2"], ["--auto"]])
@pytest.mark.parametrize("density", [[], ["--density", '{"plugin": {"mirror_kde": {"eta": 0.5}}}']])
@pytest.mark.parametrize("mask", ["1", "1,2"])
def test_an_estimate_artifact_does_not_depend_on_the_csv_row_order(tmp_path, mode, density, mask):
    fs = linear_model(3).draw(300, seed=0)
    rows = [",".join(repr(float(c)) for c in (*v, y)) for v, y in zip(fs.V, fs.Y)]
    marginals = json.dumps({"marginals": [{"uniform": [0, 1]}] * 3})
    bodies = []
    for name, order in (("sample", range(300)), ("shuffled", np.random.default_rng(5).permutation(300))):
        csv_path = _write(tmp_path, f"{name}.csv", "\n".join(["v1,v2,v3,y"] + [rows[i] for i in order]) + "\n")
        out = tmp_path / f"{name}.json"
        argv = ["estimate", "--csv", csv_path, "--mask", mask, *mode, "--marginals", marginals, *density, "--output", str(out)]
        assert main(argv) == 0
        bodies.append({k: v for k, v in json.loads(out.read_text()).items() if k != "config"})
    assert bodies[0] == bodies[1]
@pytest.mark.parametrize("mode", [["--h", "0.2"], ["--auto"]])
def test_outputs_past_the_float_range_are_an_error_json(tmp_path, capsys, mode):
    # was a bare ValueError traceback from fsum, -inf + inf
    v = np.random.default_rng(4).uniform(0.0, 1.0, (300, 2))
    y = (v[:, 0] + v[:, 1]) * 1e160
    lines = ["v1,v2,y"] + [f"{a!r},{b!r},{c!r}" for a, b, c in np.column_stack([v, y]).tolist()]
    csv_path = _write(tmp_path, "s.csv", "\n".join(lines) + "\n")
    marginals = json.dumps({"marginals": [{"uniform": [0, 1]}, {"uniform": [0, 1]}]})
    argv = ["estimate", "--csv", csv_path, "--mask", "1", *mode, "--marginals", marginals]
    assert main(argv + ["--output", str(tmp_path / "est.json")]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert err["type"] == "DegenerateOutputError" and "outputs up to |Y| = " in err["message"], err
    assert captured.err == ""


@pytest.mark.parametrize("n", [2, 3])
def test_auto_refuses_a_grid_without_a_pair_before_the_estimate(tmp_path, capsys, monkeypatch, n):
    # every grid value of T~ was 0.0, the curve selected h = 0.01, and the
    # estimate refused it with advice to raise h, which --auto cannot follow
    def estimate(*args, **kwargs):
        raise AssertionError("the estimate ran after the curve")

    monkeypatch.setattr(cli, "estimate_sobol", estimate)
    argv = ["estimate", "--model", "product", "--mask", "1,2", "--auto", "--n", str(n), "--output", str(tmp_path / "e.json")]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {
        "type": "InsufficientSampleError",
        "message": f"no window holds a second sample point at any grid h up to h=1.0 with n={n}; raise n",
    }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "argv, message",
    [
        # seed 0 fails in the calling process
        (["coverage", "--model", "product", "--mask", "1,2", "--n", "30", "--seeds", "3", "--h", "0.01"], "seed 0, n=30: "),
        # seed 0 runs, seed 1 fails: at 2 workers in the forked one
        (["coverage", "--model", "product", "--mask", "1,2", "--n", "30", "--seeds", "3", "--h", "0.03"], "seed 1, n=30: "),
        # pf and nn run on every seed; the kernel fails on seeds 0, 2 and 3
        (["compare", "--model", "ishigami", "--mask", "1,2,3", "--estimators", "kernel,pf,nn", "--n", "200", "--seeds", "4", "--h", "0.25"], "seed 0, n=200: "),
    ],
)
def test_a_study_error_names_its_lowest_failing_replicate(tmp_path, capsys, argv, message, threads):
    assert main(argv + ["--threads", str(threads), "--output", str(tmp_path / "study.csv")]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    h = argv[argv.index("--h") + 1]
    assert err == {"type": "InsufficientSampleError", "message": f"{message}no window holds a second sample point at h={h}; raise h or n"}


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


def test_estimate_auto_and_fixed_h_report_a_row_off_the_mask_box_alike(tmp_path, capsys):
    # the curve checks the sample before its pilot work, as a fixed h does
    rng = np.random.default_rng(3)
    v = rng.random((40, 2))
    v[5, 0] = 1.5
    lines = ["v1,v2,y"] + [f"{a!r},{b!r},{a + b!r}" for a, b in v.tolist()]
    csv_path = _write(tmp_path, "off.csv", "\n".join(lines) + "\n")
    marginals = json.dumps({"marginals": [{"uniform": [0, 1]}, {"uniform": [0, 1]}]})
    argv = ["estimate", "--csv", csv_path, "--mask", "1", "--marginals", marginals, "--output", str(tmp_path / "est.json")]
    payloads = []
    for mode in (["--auto"], ["--h", "0.3"]):
        assert main(argv + mode) == 1
        payloads.append(capsys.readouterr().out)
    assert payloads[0] == payloads[1]
    err = json.loads(payloads[0])["error"]
    assert err["type"] == "DomainViolationError" and "rows [5] fall outside the domain" in err["message"]


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


def _constant_column_csv(tmp_path):
    # v2 holds one value in every row, as a column of a fixed setting does
    rng = np.random.default_rng(8)
    v = np.column_stack([rng.uniform(0.0, 1.0, 300), np.full(300, 0.5)])
    lines = ["v1,v2,y"] + [f"{a!r},{b!r},{2.0 * a!r}" for a, b in v.tolist()]
    return _write(tmp_path, "c.csv", "\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "density, mode",
    [
        ({"plugin": "uniform_max"}, ["--h", "0.2"]),
        ({"plugin": {"beta_moment": {"b": 1.2}}}, ["--h", "0.2"]),
        ({"plugin": "uniform_max"}, ["--auto"]),
    ],
)
def test_a_constant_csv_column_under_a_one_axis_plugin_asks_for_marginals(density, mode, tmp_path, capsys):
    # the data box of a constant column has no width: a config error that
    # names the column and --marginals, which gives the box a range
    argv = ["estimate", "--csv", _constant_column_csv(tmp_path), "--mask", "1", "--density", json.dumps(density)]
    out = tmp_path / "est.json"
    assert main(argv + mode + ["--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["field"]) == ("ConfigError", "marginals")
    assert "v2" in err["message"] and "--marginals" in err["message"], err
    assert not out.exists()
    marginals = json.dumps({"marginals": [{"uniform": [0, 1]}, {"uniform": [0, 1]}]})
    assert main(argv + ["--h", "0.2", "--marginals", marginals, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["density"]["kind"] != "exact"


def test_mirror_kde_on_a_constant_csv_column_gives_its_own_message(tmp_path, capsys):
    argv = ["estimate", "--csv", _constant_column_csv(tmp_path), "--mask", "1", "--h", "0.2"]
    argv += ["--density", json.dumps({"plugin": {"mirror_kde": {"eta": 0.5}}}), "--output", str(tmp_path / "est.json")]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["field"]) == ("ConfigError", "marginals")
    assert err["message"].startswith("mirror_kde needs a builtin model or a marginals spec"), err


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
# the bandwidth selection in the --auto artifact
# ------------------------------------------------------------------


def test_estimate_auto_records_the_bandwidth_selection(tmp_path):
    out = str(tmp_path / "est.json")
    cfg = RunConfig(command="estimate", model="linear3", n=400, seed=3, mask=(1,), auto=True, output=out)
    assert run(cfg) == 0
    obj = json.loads(open(out).read())
    band = obj["bandwidth"]
    curve = band["objective_curve"]
    assert len(curve) == 25, f"default grid has 25 candidates, got {len(curve)}"
    hs = [pt[0] for pt in curve]
    assert hs == sorted(set(hs)), "the grid must be strictly ascending"
    best = min(curve, key=lambda pt: pt[1])  # the first minimum
    assert band["h"] == obj["result"]["h"] == best[0], f"h {band['h']} should first minimize the curve ({best[0]})"
    assert band["target"] > 0
    # both target normalizations are reported; the restricted-range one is about half
    ratio = band["target_printed"] / band["target"]
    assert 0.3 < ratio < 0.7, f"printed/full target ratio {ratio} should sit near one half"
    # every number is the library call's on the same draw
    model = model_by_name("linear3")
    direct = bandwidth_curve(model.draw(400, 3), SubsetSpec((0,)), build_kernel(2), model.input_model)
    assert band == {
        "mode": "auto",
        "h": direct["h_star"],
        "target": direct["target"],
        "target_printed": direct["target_printed"],
        "objective_curve": [list(pt) for pt in direct["curve"]],
    }


def test_the_bandwidth_command_is_gone(tmp_path, capsys):
    with pytest.raises(ConfigError) as excinfo:
        RunConfig.from_json({"command": "bandwidth", "model": "linear3", "n": 200, "mask": [1], "auto": True})
    assert _field_of(excinfo) == "command"
    out = tmp_path / "bandwidth.json"
    with pytest.raises(SystemExit) as exited:
        main(["bandwidth", "--model", "linear3", "--n", "200", "--mask", "1", "--auto", "--output", str(out)])
    assert exited.value.code == 2
    assert "invalid choice: 'bandwidth'" in capsys.readouterr().err
    assert not out.exists()


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


def test_convergence_on_a_full_mask_keeps_pick_freeze_rows_without_a_slope(tmp_path):
    # on a full mask pick-freeze's Y_pf is Y, so its RMSE is exactly 0 and
    # has no log-log slope; the kernel series keep theirs
    out = tmp_path / "conv.csv"
    argv = ["convergence", "--model", "product", "--mask", "1,2", "--h", "0.5", "--n-grid", "100,200"]
    assert main(argv + ["--seeds", "2", "--estimators", "kernel,pf", "--output", str(out)]) == 0
    _, _, rows, lines = _read_table(str(out))
    assert [(r["n"], float(r["rmse"])) for r in rows if r["estimator"] == "pf"] == [("100", 0.0), ("200", 0.0)]
    slopes = [ln.split()[2] for ln in lines if ln.startswith("# slope")]
    assert slopes == ["estimator=kernel_sobol", "estimator=kernel_t"], slopes


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
    # on numpy and the standard library; a Beta marginal loads scipy.special.
    # The import and a study on two worker processes load neither
    # multiprocessing, concurrent.futures nor numpy.polynomial, whose Gauss
    # rules only a pilot target uses
    runs = [
        ["coverage", "--model", "product", "--n", "200", "--mask", "1,2", "--h", "0.3", "--seeds", "3", "--threads", "2"],
        ["estimate", "--model", "linear3", "--n", "400", "--mask", "1", "--auto"],
        ["coverage", "--model", "product", "--n", "400", "--mask", "1,2", "--h", "0.06", "--seeds", "3"],
        ["compare", "--model", "linear3", "--n", "400", "--mask", "1", "--rule", "1.0", "0.4", "--seeds", "3"]
        + ["--estimators", "kernel,pf,nn,rank"],
    ]
    unused = ("scipy", "multiprocessing", "concurrent.futures", "numpy.polynomial")
    lines = ["import sys", "from mirrorsobol import cli"]
    lines += [f"assert {name!r} not in sys.modules, '{name} loaded by the import'" for name in unused]
    for i, argv in enumerate(runs):
        argv = argv + ["--output", str(tmp_path / f"run{i}.out")]
        lines += [f"assert cli.main({argv!r}) == 0", f"assert 'scipy' not in sys.modules, 'loaded by {argv[0]}'"]
        if i == 0:
            lines += [f"assert {name!r} not in sys.modules, '{name} loaded by coverage'" for name in unused[1:]]
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


_STUDY_HEADER = "model,mask,estimator,n,h,seed_count,mean,rmse,var_scaled_by_n"


@pytest.mark.parametrize(
    "argv, header",
    [
        (["convergence", "--n-grid", "100,200", "--h", "0.25"], _STUDY_HEADER + ",coverage"),
        (["coverage", "--n", "200", "--h", "0.25"], _STUDY_HEADER + ",coverage"),
        (["compare", "--n", "200", "--h", "0.25", "--estimators", "kernel,pf,nn,rank"], _STUDY_HEADER + ",limiting_variance"),
        (["compare", "--n", "200", "--estimators", "pf,rank"], _STUDY_HEADER + ",limiting_variance"),
    ],
)
def test_study_headers_keep_their_columns(argv, header, tmp_path):
    # the header is the keys of a study row; compare trades coverage for the
    # limiting variance, blank for every row without a CLT constant
    out = tmp_path / "study.csv"
    assert main(argv + ["--model", "linear3", "--mask", "1", "--seeds", "2", "--output", str(out)]) == 0
    _, _, rows, lines = _read_table(str(out))
    assert lines[1] == header
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines[2:] if not line.startswith("#"))
    if "pf,rank" in argv:
        assert [(r["estimator"], r["limiting_variance"]) for r in rows] == [("pf", ""), ("rank", "")]


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
        ("estimate", "marginals", {"marginals": [{"uniform": [0, 1]}] * 3}),  # of a builtin model
        ("coverage", "estimators", ["kernel", "pf"]),
        ("coverage", "auto", True),
        ("compare", "auto", True),
        ("coverage", "density", {"plugin": "uniform_max"}),
        ("compare", "density", {"plugin": "uniform_max"}),
        ("convergence", "density", {"plugin": "uniform_max"}),
        ("estimate", "threads", 7),
        ("convergence", "ci_level", 0.5),
        ("compare", "ci_level", 0.5),
        ("convergence", "n", 500),
        ("coverage", "n", 500),  # beside an n_grid
        ("estimate", "n", 500),  # of CSV input
        ("estimate", "seed", 3),  # of CSV input
        ("compare", "h", 0.2),  # without the kernel estimator
    ],
)
def test_fields_a_command_does_not_read_are_config_errors(command, field, value, tmp_path, monkeypatch, capsys):
    # recorded in the artifact, an unread field would read as if it were used
    def no_replicate(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(testbed, "estimate_sobol", no_replicate)
    monkeypatch.setattr(cli, "bandwidth_curve", no_replicate)
    base = {"command": command, "model": "linear3", "n": 200, "mask": [1], "h": 0.2}
    if command in ("convergence", "coverage"):
        base.update(n=None, n_grid=[200])
    # estimate reads n and seed of a builtin model only, and a study reads h
    # only when it runs the kernel estimator
    if command == "estimate" and field in ("n", "seed"):
        base.update(model=None, n=None, csv="sample.csv")
    if command == "compare" and field == "h":
        base.update(h=None, estimators=["pf", "nn"])
    with pytest.raises(ConfigError) as excinfo:
        RunConfig.from_json(dict(base, **{field: value}))
    assert _field_of(excinfo) == field and command in str(excinfo.value)
    assert RunConfig.from_json(base).command == command  # the defaults alone are accepted
    # every command takes every flag, so the CLI fails the same way
    out = tmp_path / "artifact"
    assert main(_argv(dict(base, **{field: value}, output=str(out)))) == 2
    assert json.loads(capsys.readouterr().out)["error"]["field"] == field
    assert not out.exists()


_KDE = "mirror_kde"


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("estimate", "auto", "no"),
        ("estimate", "auto", 1),
        ("estimate", "auto", 0),
        ("compare", "seeds", 2.7),
        ("compare", "seeds", True),
        ("estimate", "n", 200.5),
        ("estimate", "n", True),
        ("estimate", "seed", 1.5),
        ("compare", "threads", 1.5),
        ("compare", "threads", True),
        ("estimate", "kernel_order", 2.0),
        ("estimate", "mask", [1.5]),
        ("estimate", "mask", [True]),
        ("convergence", "n_grid", [200, 300.5]),
        ("convergence", "n_grid", [True, 200]),
        # the real fields and the plug-in parameters
        ("estimate", "h", "0.2"),
        ("estimate", "h", True),
        ("estimate", "h", "abc"),
        ("estimate", "ci_level", "0.9"),
        ("coverage", "variance_scale", True),
        ("coverage", "variance_scale", "2"),
        ("estimate", "rule", ["1", 0.4]),
        ("estimate", "rule", [True, 0.4]),
        ("estimate", "density", {"plugin": {_KDE: {"eta": 0.5, "m": 2.7}}}),
        ("estimate", "density", {"plugin": {_KDE: {"eta": 0.5, "m": True}}}),
        ("estimate", "density", {"plugin": {_KDE: {"eta": 0.5, "m": 0}}}),
        ("estimate", "density", {"plugin": {_KDE: {"eta": "x"}}}),
        ("estimate", "density", {"plugin": {_KDE: {"eta": 0.5, "h": "x"}}}),
        ("estimate", "density", {"plugin": {"beta_moment": {"b": "x"}}}),
        ("estimate", "density", {"plugin": {"beta_moment": {"b": True}}}),
    ],
)
def test_integer_and_bool_fields_take_no_other_type(command, field, value, tmp_path, monkeypatch, capsys):
    # int() would truncate 2.7 seeds to 2 and read True as 1, float() would
    # parse "0.2" and read True as 1.0, and any auto value but None or False
    # would run the pilot and be recorded as given
    def no_work(*args, **kwargs):
        raise AssertionError("work ran")

    monkeypatch.setattr(testbed, "estimate_sobol", no_work)
    monkeypatch.setattr(cli, "estimate_sobol", no_work)
    monkeypatch.setattr(cli, "bandwidth_curve", no_work)
    base = {"command": command, "model": "linear3", "n": 200, "mask": [1], "h": 0.2}
    if command == "convergence":
        base.update(n=None, n_grid=[200])
    if field == "rule":
        base.update(h=None)
    with pytest.raises(ConfigError) as excinfo:
        RunConfig.from_json(dict(base, **{field: value}))
    assert _field_of(excinfo) == field
    # the number and bool flags pass any JSON value on to RunConfig
    out = tmp_path / "artifact"
    flag = "--order" if field == "kernel_order" else "--" + field.replace("_", "-")
    texts = [json.dumps(v) for v in value] if isinstance(value, list) else [json.dumps(value)]
    if field != "rule":  # --rule takes two arguments, the list flags one
        texts = [",".join(texts)]
    rest = {k: v for k, v in base.items() if k != field}
    assert main(_argv(dict(rest, output=str(out))) + [flag] + texts) == 2
    assert json.loads(capsys.readouterr().out)["error"]["field"] == field
    assert not out.exists()


@pytest.mark.parametrize(
    "over",
    [
        # the one-dimensional plug-ins, before the sample is drawn
        dict(mask=[1, 2], density={"plugin": "uniform_max"}),
        dict(mask=[1, 2], density={"plugin": {"beta_moment": {"b": 1.2}}}),
        # a CSV sample is its own auxiliary draw, so m would go unread
        dict(model=None, n=None, csv="sample.csv", density={"plugin": {_KDE: {"eta": 0.5, "m": 50}}}),
    ],
)
def test_density_plugins_the_config_cannot_run_are_config_errors(over, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran")

    for name in ("estimate_sobol", "bandwidth_curve", "load_sample_csv", "uniform_max_estimator", "mirror_kde"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(testbed.AnalyticModel, "draw", no_work)
    config = dict({"command": "estimate", "model": "product", "n": 200, "mask": [1], "h": 0.2}, **over)
    with pytest.raises(ConfigError) as excinfo:
        RunConfig.from_json(config)
    assert _field_of(excinfo) == "density"
    out = tmp_path / "artifact"
    assert main(_argv(dict(config, output=str(out)))) == 2
    assert json.loads(capsys.readouterr().out)["error"]["field"] == "density"
    assert not out.exists()


def test_number_flags_take_json_integers_as_reals():
    argv = ["estimate", "--model", "linear3", "--n", "200", "--mask", "1", "--ci-level", "0.9"]
    config = RunConfig(**vars(_build_parser().parse_args(argv + ["--rule", "1", "0.4"])))
    assert config.rule == (1.0, 0.4) and config.ci_level == 0.9
    config = RunConfig(**vars(_build_parser().parse_args(argv + ["--h", "1"])))
    assert config.h == 1.0 and isinstance(config.h, float)
    kde = RunConfig.from_json({**config.to_json(), "density": {"plugin": {_KDE: {"eta": 1, "m": 50}}}})
    assert cli._parse_density_spec(kde.density) == (_KDE, {"eta": 1.0, "m": 50})


def _argv(config: dict) -> list:
    """The command line of a config dict; None fields are left unset."""
    argv = [config["command"]]
    for field, value in config.items():
        if field == "command" or value is None:
            continue
        flag = "--order" if field == "kernel_order" else "--" + field.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif field == "rule":
            argv += [flag] + [str(v) for v in value]
        elif isinstance(value, list):
            argv += [flag, ",".join(str(v) for v in value)]
        else:
            argv += [flag, json.dumps(value) if isinstance(value, dict) else str(value)]
    return argv


def test_a_study_without_the_kernel_takes_no_bandwidth(tmp_path):
    out = tmp_path / "cmp.csv"
    argv = ["compare", "--model", "linear3", "--n", "200", "--mask", "1", "--seeds", "3", "--estimators", "pf,nn"]
    assert main(argv + ["--output", str(out)]) == 0
    cfg, _, rows, _ = _read_table(str(out))
    assert cfg.h is None and cfg.rule is None
    assert [r["estimator"] for r in rows] == ["pf", "nn_t"] and all(r["h"] == "" for r in rows)


def _repo_file(*parts):
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), *parts)


def test_shipped_command_lines_parse(monkeypatch):
    # the experiment scripts' defaults and the benchmark workloads
    argvs = []
    for name in ("bandwidth", "compare", "convergence", "coverage"):
        argvs.append(runpy.run_path(_repo_file("scripts", f"run_{name}.py"))["DEFAULTS"])
    assert argvs[0][:1] == ["estimate"] and "--auto" in argvs[0], "the selection demo runs estimate --auto"
    monkeypatch.syspath_prepend(_repo_file("perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", _repo_file("perfbench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    argvs += [workload.cli_args(seed=3) for workload in bench.WORKLOADS.values()]
    assert len(argvs) == 8
    for argv in argvs:
        config = RunConfig(**vars(_build_parser().parse_args(argv)))
        assert config.command == argv[0]


@pytest.mark.parametrize(
    "script, flags, mode",
    [
        ("compare", ["--rule", "1.0", "0.4", "--n", "200", "--seeds", "2"], {"rule": (1.0, 0.4)}),
        ("coverage", ["--h", "0.2"], {"h": 0.2}),
        ("bandwidth", ["--h", "0.2"], {"h": 0.2}),
        ("convergence", ["--estimators", "pf,nn", "--n-grid", "100,200", "--seeds", "2"], {}),
        ("convergence", ["--estimators", "kernel,pf", "--seeds", "2"], {"rule": (1.0, 0.4)}),
        ("compare", ["--n", "200"], {"h": 0.25}),
        ("bandwidth", ["--n", "500"], {"auto": True}),
    ],
)
def test_script_flags_replace_the_script_defaults(script, flags, mode):
    # a bandwidth mode on the command line replaces the script's, and
    # estimators without the kernel take none; any other default stays
    command_line = runpy.run_path(_repo_file("scripts", "_defaults.py"))["command_line"]
    defaults = runpy.run_path(_repo_file("scripts", f"run_{script}.py"))["DEFAULTS"]
    argv = command_line(defaults, flags)
    assert argv[-len(flags) :] == flags
    config = RunConfig(**vars(_build_parser().parse_args(argv)))
    assert {m: getattr(config, m) for m in ("h", "rule", "auto") if getattr(config, m) not in (None, False)} == mode
    assert config.output == defaults[defaults.index("--output") + 1]


def test_unset_flags_leave_the_defaults_to_run_config():
    args = _build_parser().parse_args(["coverage", "--model", "linear3", "--n", "200", "--mask", "1", "--h", "0.2"])
    assert vars(args) == {"command": "coverage", "model": "linear3", "n": 200, "mask": (1,), "h": 0.2}


def test_one_parser_reads_every_command_line(capsys):
    # one parser: the command name, then the flags that were set, whatever
    # the command (a flag's value may name another command); RunConfig, not
    # the parser, says which flags a command reads
    for argv, expected in (
        (
            ["estimate", "--csv", "s.csv", "--mask", "1,3", "--auto", "--density", '{"plugin": "uniform_max"}'],
            {"command": "estimate", "csv": "s.csv", "mask": (1, 3), "auto": True, "density": {"plugin": "uniform_max"}},
        ),
        (
            ["convergence", "--model", "product", "--mask", "1,2", "--n-grid", "100,200", "--rule", "1", "0.4"],
            {"command": "convergence", "model": "product", "mask": (1, 2), "n_grid": (100, 200), "rule": [1, 0.4]},
        ),
        (
            ["coverage", "--model", "linear3", "--n", "200", "--mask", "1", "--h", "0.2", "--output", "compare"],
            {"command": "coverage", "model": "linear3", "n": 200, "mask": (1,), "h": 0.2, "output": "compare"},
        ),
        (
            ["compare", "--model", "nope", "--n", "1.5", "--mask", "1", "--estimators", "pf,nn", "--order", "4"],
            {"command": "compare", "model": "nope", "n": 1.5, "mask": (1,), "estimators": ("pf", "nn"), "kernel_order": 4},
        ),
    ):
        assert vars(_build_parser().parse_args(argv)) == expected
    capsys.readouterr()
    with pytest.raises(SystemExit) as exited:
        _build_parser().parse_args(["--help"])
    assert exited.value.code == 0
    text = capsys.readouterr().out
    assert "{estimate,convergence,coverage,compare}" in text and "--variance-scale" in text


def test_an_unknown_model_is_a_config_error_on_stdout(tmp_path, capfd):
    # RunConfig alone knows the builtin models; the parser takes any name
    out = tmp_path / "est.json"
    assert main(["estimate", "--model", "nope", "--n", "200", "--mask", "1", "--h", "0.2", "--output", str(out)]) == 2
    stdout, stderr = capfd.readouterr()
    assert stderr == ""
    (line,) = stdout.splitlines()
    err = json.loads(line)["error"]
    assert (err["type"], err["field"]) == ("ConfigError", "model") and "linear3" in err["message"], err
    assert not out.exists()


def test_main_reports_config_errors(capsys):
    code = main(["estimate", "--model", "linear3", "--mask", "1", "--h", "0.2"])  # n missing
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["field"] == "n", f"missing n should be named, got {err}"
