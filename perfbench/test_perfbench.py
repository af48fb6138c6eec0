"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys
import time

import numpy as np
import pytest

import checks
import run
import spans

sys.path.insert(0, run.SRC)


def _span(i, name, start, end, parent=None, thread="main"):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "thread": thread}


def test_self_time_of_synthetic_nested_call():
    tree = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "a.child", 1.0, 4.0, parent=0),
        _span(2, "a.child", 3.0, 6.0, parent=0),  # overlaps its sibling
        _span(3, "b.child", 8.0, 12.0, parent=0),  # runs past its parent's end
        _span(4, "a.child", 1.5, 2.0, parent=1),  # same name nested: not counted twice
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(4.0)
    assert spans.layer_time(tree, "a.child", threads=2) == pytest.approx(3.0 + 3.0)
    pooled = [_span(0, "t.study", 0.0, 4.0)] + [
        _span(i, "e.est", 0.0, 4.0, parent=0, thread="pool") for i in (1, 2)
    ]
    assert spans.layer_time(pooled, "e.est", threads=2) == pytest.approx(4.0)
    assert spans.self_times(pooled)[0] == pytest.approx(0.0)


def test_tracer_spans_a_real_run_and_uninstalls(tmp_path, monkeypatch):
    from mirrorsobol import cli, estimator

    monkeypatch.chdir(tmp_path)
    original = estimator.estimate_sobol
    tracer = spans.Tracer(memory=True)
    tracer.install()
    try:
        assert cli.estimate_sobol is not original
        rc = cli.main(["estimate", "--model", "product", "--n", "300", "--mask", "1,2", "--h", "0.3"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert cli.estimate_sobol is original and estimator.estimate_sobol is original
    by_name = {s["name"]: s for s in tracer.spans}
    main, est = by_name["cli.main"], by_name["estimator.estimate_sobol"]
    assert by_name["cli.run"]["parent"] == main["id"]
    assert main["start"] <= est["start"] <= est["end"] <= main["end"]
    assert est["peak_bytes"] > 0
    selfs = spans.self_times(tracer.spans)
    assert all(v >= -1e-9 for v in selfs.values())
    pairs = spans.count_window_pairs(tracer.spans)
    layers = spans.layer_metrics(tracer.spans, 1, main["end"] - main["start"], pairs, 1.0)
    assert layers["estimator.estimate_sobol_calls"] == 1
    assert layers["estimator.window_pairs"] == pairs > 0
    assert 0.5 < layers["trace.attributed_frac"] <= 1.0
    assert spans.peak_metrics(tracer.spans)["estimator.peak_mb"] > 0


def _edge_sample(rng, n, d):
    x = rng.uniform(0.0, 1.0, size=(n, d))
    special = np.array([0.0, 1.0, 0.5, 0.25, 0.75, 0.5, 0.125])
    x[: special.size, 0] = special  # box edges, the mirror midpoint (twice), window edges
    if d > 1:
        x[: special.size, 1] = special[::-1]
        x[special.size : special.size + 3] = x[:3]  # tied rows
    return x


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("h", [0.5, 0.25, 0.3, 1.0])
def test_window_pairs_match_brute_force(d, h):
    x = _edge_sample(np.random.default_rng(7 + d), 60, d)
    lower, upper = np.zeros(d), np.ones(d)
    assert spans.window_pairs(x, lower, upper, h) == spans.window_pairs_brute(x, lower, upper, h)


def _estimate_artifact(**result):
    body = {"h": 0.125, "sobol": 0.34, "t_hat": 2.33, "var_sobol": 0.9, "ci": [0.31, 0.37], "n": 4000}
    body.update(result)
    return json.dumps(
        {"config": {"seed": 0}, "result": body, "bandwidth": {"mode": "auto", "h": body["h"]}}, sort_keys=True
    )


def test_output_check_rejects_perturbed_artifacts():
    ref = checks.reference_record("estimate", _estimate_artifact())
    checks.check_estimate(checks.estimate_values(_estimate_artifact()), ref, 1e-9)
    for bad in ({"sobol": 0.34 * (1 + 1e-7)}, {"h": 0.125 * (1 + 1e-15)}, {"ci": [0.31, 0.3700001]}):
        with pytest.raises(checks.CheckError):
            checks.check_estimate(checks.estimate_values(_estimate_artifact(**bad)), ref, 1e-9)

    table = "# schema_version=1 config={}\nmodel,mask,estimator,n,h,seed_count,mean,rmse,var_scaled_by_n,coverage\n"
    good = table + "product,1+2,kernel_sobol,2000,0.05,20,0.99,0.03,1.5,0.95\n"
    ref_rows = checks.reference_record("coverage", good)
    checks.check_rows(checks.study_rows(good), ref_rows, 1e-9)
    for bad in (good.replace("0.03,", "0.0300001,"), good.replace(",0.95", ",0.9"), table):
        with pytest.raises(checks.CheckError):
            checks.check_rows(checks.study_rows(bad), ref_rows, 1e-9)


def test_unreferenced_seed_is_checked_against_truth():
    values = checks.estimate_values(_estimate_artifact())
    checks.sanity_estimate(values, 1.0 / 3.0, (0.005, 1.0))
    with pytest.raises(checks.CheckError):
        checks.sanity_estimate(values, 0.5, (0.005, 1.0))
    with pytest.raises(checks.CheckError):
        checks.sanity_estimate(values, 1.0 / 3.0, (0.2, 1.0))


def test_wait4_captures_child_peak_rss(tmp_path):
    size_mb = 128
    code = f"x = b'\\x01' * ({size_mb} << 20); print(len(x))"
    with open(os.devnull, "wb") as out:
        _, rc, wall, usage = run.spawn([sys.executable, "-c", code], str(tmp_path), out, time.perf_counter() + 60)
    rss_mb = usage.ru_maxrss / 1024.0
    assert rc == 0 and wall > 0
    assert size_mb <= rss_mb <= size_mb + 64


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
