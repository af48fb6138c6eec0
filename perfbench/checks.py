"""Output checks: every artifact is compared with the values recorded in references.json.

An `estimate` artifact must select exactly the recorded bandwidth and
reproduce h, sobol, t_hat, var_sobol and ci within `rtol`.  A study table
must reproduce each row's mean, rmse, coverage and limiting variance within
`rtol`.  An `estimate` on a seed with no recorded values is checked against
the model truth instead (see `sanity_estimate`).
"""

from __future__ import annotations

import csv
import io
import json
import math

ESTIMATE_KEYS = ("h", "sobol", "t_hat", "var_sobol", "ci")
ROW_KEYS = ("mean", "rmse", "coverage", "limiting_variance")
ROW_IDS = ("model", "mask", "estimator", "n", "h", "seed_count")
# an unreferenced seed passes when the estimate sits within this many
# standard errors of the truth (or within SANITY_ABS of it)
SANITY_SE = 8.0
SANITY_ABS = 0.05


class CheckError(Exception):
    """An artifact that does not match its reference."""


def close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(a), abs(b))


def estimate_values(text: str) -> dict:
    """The checked values of an estimate.json artifact."""
    payload = json.loads(text)
    result, band = payload["result"], payload["bandwidth"]
    if result["h"] != band["h"]:
        raise CheckError(f"result h {result['h']!r} differs from the selected h {band['h']!r}")
    out = {key: result[key] for key in ESTIMATE_KEYS}
    out["n"] = result["n"]
    out["seed"] = payload["config"]["seed"]
    return out


def study_rows(text: str) -> list:
    """The rows of a study CSV artifact (config comment lines skipped)."""
    lines = [line for line in io.StringIO(text) if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_estimate(values: dict, ref: dict, rtol: float) -> None:
    if values["h"] != ref["h"]:
        raise CheckError(f"selected h {values['h']!r} differs from the reference {ref['h']!r}")
    for key in ESTIMATE_KEYS[1:]:
        got, want = values[key], ref[key]
        pairs = zip(got, want) if isinstance(want, list) else [(got, want)]
        for g, w in pairs:
            if not close(float(g), float(w), rtol):
                raise CheckError(f"{key} = {got!r}, reference {want!r} (rtol {rtol})")


def sanity_estimate(values: dict, truth: float, h_range: tuple) -> None:
    lo_h, hi_h = h_range
    if not (lo_h <= values["h"] <= hi_h):
        raise CheckError(f"selected h {values['h']!r} outside the candidate grid [{lo_h}, {hi_h}]")
    nums = [values["sobol"], values["t_hat"], values["var_sobol"], *values["ci"]]
    if not all(math.isfinite(float(v)) for v in nums):
        raise CheckError(f"non-finite estimate values {nums}")
    lo, hi = values["ci"]
    if not lo <= values["sobol"] <= hi:
        raise CheckError(f"interval {values['ci']} does not contain the estimate {values['sobol']}")
    se = math.sqrt(max(values["var_sobol"], 0.0) / values["n"])
    if abs(values["sobol"] - truth) > max(SANITY_SE * se, SANITY_ABS):
        raise CheckError(f"sobol {values['sobol']} is far from the truth {truth} (se {se})")


def check_rows(rows: list, ref_rows: list, rtol: float) -> None:
    if len(rows) != len(ref_rows):
        raise CheckError(f"{len(rows)} rows, reference has {len(ref_rows)}")
    for row, ref in zip(rows, ref_rows):
        for key in ROW_IDS:
            if row.get(key) != ref[key]:
                raise CheckError(f"row {key} = {row.get(key)!r}, reference {ref[key]!r}")
        for key in ROW_KEYS:
            if ref.get(key, "") == "":
                if row.get(key, "") != "":
                    raise CheckError(f"row {ref['estimator']} {key} = {row[key]!r}, reference is empty")
                continue
            if not close(float(row[key]), float(ref[key]), rtol):
                raise CheckError(f"row {ref['estimator']} {key} = {row[key]!r}, reference {ref[key]!r} (rtol {rtol})")


def reference_record(kind: str, text: str):
    """What references.json stores for one artifact."""
    if kind == "estimate":
        values = estimate_values(text)
        return {key: values[key] for key in ESTIMATE_KEYS}
    return [{key: row.get(key, "") for key in ROW_IDS + ROW_KEYS} for row in study_rows(text)]
