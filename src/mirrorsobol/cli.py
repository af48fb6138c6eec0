"""Command-line harness: JSON-configured runs wiring the library modules together.

Five subcommands share one declarative ``RunConfig``:

``estimate``
    one Sobol'/t estimate with CI, written as JSON;
``bandwidth``
    Algorithm-driven bandwidth selection, written as JSON with the
    objective curve;
``convergence`` / ``coverage`` / ``compare``
    Monte Carlo studies over seeds (and sample sizes), written as CSV
    tables with a leading config comment line.

Masks are 1-based on this surface (axis "1" is the first input column);
the library itself is 0-based.  Every artifact embeds the exact config
and a schema version, and identical configs produce byte-identical
files, independent of the thread count doing the work.

The only environment variable consulted is ``MIRRORSOBOL_OUTPUT_DIR``,
which supplies the default output directory when ``output`` is not set.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bandwidth import PilotConfig, bandwidth_curve, default_grid, rule_of_thumb_h0
from .density import beta_moment_estimator, mirror_kde, uniform_max_estimator
from .domain import Domain
from .errors import MirrorSobolError
from .estimator import FullSample, SubsetSpec, estimate_sobol
from .inputs import InputModel, input_model_from_json, sample as draw_inputs
from .kernels import build_kernel
from .testbed import (
    ExperimentPlan,
    builtin_models,
    convergence_study,
    coverage_study,
    model_by_name,
    variance_oracles,
)

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "MIRRORSOBOL_OUTPUT_DIR"

_COMMANDS = ("estimate", "bandwidth", "convergence", "coverage", "compare")
_STUDY_COLUMNS = (
    "model",
    "mask",
    "estimator",
    "n",
    "h",
    "seed_count",
    "mean",
    "rmse",
    "var_scaled_by_n",
    "coverage",
)
_COMPARE_COLUMNS = _STUDY_COLUMNS[:-1] + ("limiting_variance",)
_ESTIMATOR_NAMES = ("kernel", "pf", "nn", "rank")
_AUX_STREAM = 9  # reserved stream for plug-in auxiliary draws
_MAX_THREADS = 256  # fixed so that a config is valid on any machine


class ConfigError(MirrorSobolError):
    """Invalid RunConfig; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class CsvFormatError(MirrorSobolError):
    """Malformed sample CSV; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = int(line)


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of one CLI run.

    Exactly one input source (``csv`` or ``model``) and exactly one
    bandwidth mode (``h``, ``auto``, or ``rule``) must be set.  ``mask``
    holds 1-based input axes.  ``density`` is either the string
    ``"exact"`` or a plug-in spec::

        {"plugin": "uniform_max"}
        {"plugin": {"beta_moment": {"b": 1.2}}}
        {"plugin": {"mirror_kde": {"eta": 0.5, "h": 0.2, "m": 4000}}}

    Study commands use ``n_grid`` (convergence; coverage falls back to
    ``(n,)``), ``seeds`` (seed count, seeds are 0..seeds-1) and
    ``estimators``.  The config round-trips losslessly through
    ``to_json``/``from_json``.
    """

    command: str
    csv: Optional[str] = None
    model: Optional[str] = None
    n: Optional[int] = None
    seed: int = 0
    mask: tuple = ()
    kernel_order: int = 2
    kernel_base: str = "uniform"
    h: Optional[float] = None
    auto: bool = False
    rule: Optional[tuple] = None
    density: object = "exact"
    marginals: Optional[dict] = None
    output: Optional[str] = None
    ci_level: float = 0.95
    threads: int = 1
    n_grid: tuple = ()
    seeds: int = 100
    estimators: tuple = ("kernel",)
    variance_scale: float = 1.0

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ConfigError("command", f"command must be one of {list(_COMMANDS)}, got {self.command!r}")
        if (self.csv is None) == (self.model is None):
            raise ConfigError("input", "exactly one input source required: csv path or builtin model")
        if self.model is not None:
            try:
                model_by_name(self.model)
            except MirrorSobolError as exc:
                raise ConfigError("model", str(exc)) from None
            if self.marginals is not None:
                raise ConfigError("marginals", "marginals apply to csv input only; builtin models carry their own")
            if self.command != "convergence" and (self.n is None or int(self.n) < 2):
                raise ConfigError("n", "builtin input needs a sample size n >= 2")
        if self.n is not None:
            object.__setattr__(self, "n", int(self.n))
            if self.n < 2:
                raise ConfigError("n", f"n must be >= 2, got {self.n}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise ConfigError("seed", f"seed must be nonnegative, got {self.seed}")

        mask = tuple(int(i) for i in self.mask)
        if len(mask) == 0:
            raise ConfigError("mask", "mask must be nonempty (1-based input axes)")
        if len(set(mask)) != len(mask) or any(i < 1 for i in mask):
            raise ConfigError("mask", f"mask must be distinct 1-based axes, got {list(mask)}")
        object.__setattr__(self, "mask", tuple(sorted(mask)))

        object.__setattr__(self, "kernel_order", int(self.kernel_order))
        if self.kernel_order < 1:
            raise ConfigError("kernel_order", f"kernel order must be >= 1, got {self.kernel_order}")
        if self.kernel_base != "uniform":
            raise ConfigError("kernel_base", f"only the 'uniform' base is available, got {self.kernel_base!r}")

        modes = int(self.h is not None) + int(bool(self.auto)) + int(self.rule is not None)
        if modes != 1:
            raise ConfigError(
                "bandwidth", f"exactly one bandwidth mode required (fixed h, auto, or rule); got {modes}"
            )
        if self.h is not None:
            object.__setattr__(self, "h", float(self.h))
            if not (self.h > 0 and math.isfinite(self.h)):
                raise ConfigError("bandwidth", f"fixed h must be positive and finite, got {self.h}")
        if self.rule is not None:
            try:
                c, gamma = (float(v) for v in self.rule)
            except (TypeError, ValueError) as exc:
                raise ConfigError("bandwidth", f"rule must be a (c, gamma) pair, got {self.rule!r}") from exc
            if not (c > 0 and 0 < gamma < 1):
                raise ConfigError("bandwidth", f"rule needs c > 0 and 0 < gamma < 1, got ({c}, {gamma})")
            object.__setattr__(self, "rule", (c, gamma))
        if self.auto and self.command in ("convergence", "coverage", "compare"):
            raise ConfigError("bandwidth", "auto bandwidth applies to single runs; studies take fixed h or a rule")

        _parse_density_spec(self.density)  # validates; raises ConfigError
        if self.marginals is not None:
            try:
                input_model_from_json(self.marginals)
            except MirrorSobolError as exc:
                raise ConfigError("marginals", f"invalid marginals spec: {exc}") from exc

        object.__setattr__(self, "ci_level", float(self.ci_level))
        if not (0.0 < self.ci_level < 1.0):
            raise ConfigError("ci_level", f"ci_level must be in (0, 1), got {self.ci_level}")
        object.__setattr__(self, "threads", int(self.threads))
        if not 1 <= self.threads <= _MAX_THREADS:
            raise ConfigError("threads", f"--threads must be in [1, {_MAX_THREADS}], got {self.threads}")

        grid = tuple(int(v) for v in self.n_grid)
        if any(v < 2 for v in grid) or list(grid) != sorted(set(grid)):
            raise ConfigError("n_grid", f"n_grid must be ascending distinct sizes >= 2, got {list(grid)}")
        object.__setattr__(self, "n_grid", grid)
        if self.command == "convergence" and len(grid) == 0:
            raise ConfigError("n_grid", "convergence needs a nonempty n_grid")
        if self.command == "coverage" and len(grid) == 0 and self.n is None:
            raise ConfigError("n_grid", "coverage needs n_grid or n")
        if self.command in ("convergence", "coverage", "compare") and self.model is None:
            raise ConfigError("input", f"{self.command} needs a builtin model (truth is required)")

        object.__setattr__(self, "seeds", int(self.seeds))
        if self.seeds < 1:
            raise ConfigError("seeds", f"seeds must be >= 1, got {self.seeds}")
        ests = tuple(str(e) for e in self.estimators)
        unknown = set(ests) - set(_ESTIMATOR_NAMES)
        if len(ests) == 0 or unknown:
            raise ConfigError("estimators", f"estimators must be drawn from {list(_ESTIMATOR_NAMES)}, got {list(ests)}")
        object.__setattr__(self, "estimators", ests)
        object.__setattr__(self, "variance_scale", float(self.variance_scale))
        if not (self.variance_scale > 0):
            raise ConfigError("variance_scale", f"variance_scale must be positive, got {self.variance_scale}")

    def to_json(self) -> dict:
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = list(value)
            out[field.name] = value
        return out

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config", f"config must be a JSON object, got {type(obj).__name__}")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        for key in obj:
            if key not in known:
                raise ConfigError(key, f"unknown config field {key!r}")
        if "command" not in obj:
            raise ConfigError("command", "config is missing the command field")
        kwargs = dict(obj)
        for key in ("mask", "n_grid", "estimators", "rule"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        return RunConfig(**kwargs)


def _parse_density_spec(density) -> tuple:
    """Normalize the density field to ("exact", {}) or (plugin_name, params)."""
    if density == "exact":
        return ("exact", {})
    if not (isinstance(density, dict) and set(density) == {"plugin"}):
        raise ConfigError("density", f'density must be "exact" or {{"plugin": ...}}, got {density!r}')
    plug = density["plugin"]
    if plug == "uniform_max":
        return ("uniform_max", {})
    if isinstance(plug, dict) and len(plug) == 1:
        (name, params), = plug.items()
        if not isinstance(params, dict):
            raise ConfigError("density", f"plugin parameters must be an object, got {params!r}")
        if name == "beta_moment":
            if "b" not in params or set(params) - {"b"}:
                raise ConfigError("density", "beta_moment takes exactly the parameter b")
            return ("beta_moment", {"b": float(params["b"])})
        if name == "mirror_kde":
            extra = set(params) - {"eta", "h", "m"}
            if "eta" not in params or extra:
                raise ConfigError("density", f"mirror_kde takes eta (required), h, m; got {sorted(params)}")
            out = {"eta": float(params["eta"])}
            if "h" in params:
                out["h"] = float(params["h"])
            if "m" in params:
                out["m"] = int(params["m"])
            return ("mirror_kde", out)
    raise ConfigError("density", f"unknown density plugin {plug!r}")


# --------------------------------------------------------------------------
# sample input


def load_sample_csv(path: str) -> FullSample:
    """Parse a sample CSV with header ``v1,...,vp,y`` into a FullSample.

    Row order is preserved.  Any malformed header, wrong field count,
    unparsable float, or non-finite value raises CsvFormatError with the
    1-based line number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(1, "empty file; expected header v1,...,vp,y") from None
        header = [cell.strip() for cell in header]
        p = len(header) - 1
        expected = [f"v{i}" for i in range(1, p + 1)] + ["y"]
        if p < 1 or header != expected:
            raise CsvFormatError(1, f"header must be v1,...,vp,y; got {','.join(header)}")
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if len(record) == 0 or (len(record) == 1 and record[0].strip() == ""):
                continue  # ignore a trailing blank line
            if len(record) != p + 1:
                raise CsvFormatError(lineno, f"expected {p + 1} fields, got {len(record)}")
            try:
                values = [float(cell) for cell in record]
            except ValueError:
                raise CsvFormatError(lineno, f"could not parse floats from {record!r}") from None
            if not all(math.isfinite(v) for v in values):
                raise CsvFormatError(lineno, f"non-finite value in {record!r}")
            rows.append(values)
    if len(rows) < 2:
        raise CsvFormatError(len(rows) + 1, f"need at least 2 data rows, got {len(rows)}")
    data = np.asarray(rows, dtype=float)
    return FullSample(V=data[:, :p], Y=data[:, p])


# --------------------------------------------------------------------------
# resolution helpers


def _load_input(config: RunConfig):
    """Returns (sample, model-or-None, input_model-or-None)."""
    if config.model is not None:
        model = model_by_name(config.model)
        fs = model.draw(config.n, config.seed)
        return fs, model, model.input_model
    fs = load_sample_csv(config.csv)
    input_model = input_model_from_json(config.marginals) if config.marginals is not None else None
    if input_model is not None and input_model.p != fs.p:
        raise ConfigError("marginals", f"marginals describe {input_model.p} inputs but the CSV has {fs.p}")
    return fs, None, input_model


def _mask0(config: RunConfig, p: int) -> tuple:
    mask = tuple(i - 1 for i in config.mask)
    if any(i >= p for i in mask):
        raise ConfigError("mask", f"mask {list(config.mask)} out of range for {p} inputs (axes are 1-based)")
    return mask


def _data_box(fs: FullSample) -> Domain:
    return Domain(fs.V.min(axis=0), fs.V.max(axis=0))


def _override_axis(domain: Domain, axis: int, lo: float, hi: float) -> Domain:
    lower = np.array(domain.lower, dtype=float)
    upper = np.array(domain.upper, dtype=float)
    lower[axis], upper[axis] = lo, hi
    return Domain(lower, upper)


def _setup_density(config: RunConfig, fs: FullSample, mask0: tuple, input_model):
    """Returns (f_x, full-p domain, density info dict for the artifact)."""
    kind, params = _parse_density_spec(config.density)
    d = len(mask0)
    if kind == "exact":
        if input_model is None:
            raise ConfigError("marginals", "exact density needs a builtin model or a marginals spec")
        return input_model, input_model.domain, {"kind": "exact"}
    base = input_model.domain if input_model is not None else _data_box(fs)
    if kind in ("uniform_max", "beta_moment"):
        if d != 1:
            raise ConfigError("density", f"{kind} is one-dimensional; mask has {d} axes")
        aux = fs.V[:, mask0[0]]
        if kind == "uniform_max":
            est = uniform_max_estimator(aux)
            theta = est.params["theta_hat"]
            domain = _override_axis(base, mask0[0], 0.0, theta)
        else:
            est = beta_moment_estimator(aux, params["b"])
            domain = _override_axis(base, mask0[0], 0.0, 1.0)
        return est.eval_rows, domain, {"kind": est.kind, "params": est.params}
    # mirror_kde
    if input_model is None:
        raise ConfigError("marginals", "mirror_kde needs a builtin model or a marginals spec for the domain")
    domain = input_model.domain
    if config.model is not None:
        m = params.get("m", fs.n)
        pts = draw_inputs(input_model, m, config.seed, stream=_AUX_STREAM)[:, mask0]
    else:
        pts = fs.V[:, mask0]
    est = mirror_kde(
        pts,
        build_kernel(config.kernel_order, d),
        h_kde=params.get("h"),
        eta=params["eta"],
        domain=domain.subdomain(mask0),
    )
    return est.eval_rows, domain, {"kind": est.kind, "params": est.params}


def _resolve_h(config: RunConfig, fs: FullSample, spec, kernel, f_x, domain, input_model):
    """Returns (h, bandwidth info dict); runs the selection algorithm under auto."""
    if config.h is not None:
        return config.h, {"mode": "fixed", "h": config.h}
    if config.rule is not None:
        c, gamma = config.rule
        h = c * fs.n ** (-gamma)
        return h, {"mode": "rule", "c": c, "gamma": gamma, "h": h}
    out = _auto_curve(fs, spec, kernel, f_x, domain, input_model)
    return out["h_star"], {"mode": "auto", "h": out["h_star"], "target": out["target"]}


def _auto_curve(fs: FullSample, spec, kernel, f_x, domain, input_model) -> dict:
    """Pilot selection with rule-of-thumb pilot bandwidths on the default grid."""
    pilot = PilotConfig(
        h0=tuple(rule_of_thumb_h0(fs)),
        grid=tuple(default_grid(fs.n, spec.d, domain.subdomain(spec.mask))),
    )
    return bandwidth_curve(fs, spec, kernel, pilot, f_x, domain=domain, input_model=input_model)


def _h_rule_fn(config: RunConfig):
    if config.h is not None:
        return config.h
    c, gamma = config.rule
    return lambda n: c * n ** (-gamma)


def _build_plan(config: RunConfig, n_grid: tuple) -> ExperimentPlan:
    model = model_by_name(config.model)
    return ExperimentPlan(
        model=model,
        masks=(_mask0(config, model.input_model.p),),
        n_grid=n_grid,
        h_rule=_h_rule_fn(config),
        kernel_order=config.kernel_order,
        seeds=tuple(range(config.seeds)),
        estimators=config.estimators,
        ci_level=config.ci_level,
        threads=config.threads,
    )


# --------------------------------------------------------------------------
# artifact serialization


def _output_path(config: RunConfig) -> str:
    ext = "json" if config.command in ("estimate", "bandwidth") else "csv"
    if config.output is not None:
        return config.output
    base = os.environ.get(OUTPUT_DIR_ENV, ".")
    return os.path.join(base, f"{config.command}.{ext}")


def _write_text(path: str, text: str) -> str:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _json_artifact(config: RunConfig, body: dict) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "config": config.to_json()}
    payload.update(body)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_artifact(config: RunConfig, columns: tuple, rows: list, trailer: list = ()) -> str:
    compact = json.dumps(config.to_json(), sort_keys=True, separators=(",", ":"))
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION} config={compact}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])
    for line in trailer:
        buf.write(f"# {line}\n")
    return buf.getvalue()


# --------------------------------------------------------------------------
# commands


def _cmd_estimate(config: RunConfig) -> str:
    fs, _, input_model = _load_input(config)
    spec = SubsetSpec(_mask0(config, fs.p))
    kernel = build_kernel(config.kernel_order, spec.d)
    f_x, domain, density_info = _setup_density(config, fs, spec.mask, input_model)
    h, band_info = _resolve_h(config, fs, spec, kernel, f_x, domain, input_model)
    res = estimate_sobol(fs, spec, kernel, h, f_x, domain=domain, ci_level=config.ci_level)
    body = {"result": res.to_json(), "density": density_info, "bandwidth": band_info}
    return _write_text(_output_path(config), _json_artifact(config, body))


def _cmd_bandwidth(config: RunConfig) -> str:
    fs, _, input_model = _load_input(config)
    spec = SubsetSpec(_mask0(config, fs.p))
    kernel = build_kernel(config.kernel_order, spec.d)
    f_x, domain, density_info = _setup_density(config, fs, spec.mask, input_model)
    out = _auto_curve(fs, spec, kernel, f_x, domain, input_model)
    body = {
        "h_star": out["h_star"],
        "target": out["target"],
        "target_printed": out["target_printed"],
        "objective_curve": [[h, v] for h, v in out["curve"]],
        "density": density_info,
    }
    return _write_text(_output_path(config), _json_artifact(config, body))


def _cmd_convergence(config: RunConfig) -> str:
    plan = _build_plan(config, config.n_grid)
    out = convergence_study(plan)
    trailer = [
        f"slope estimator={est} mask={mask_label} value={_cell(slope)}"
        for (est, mask_label), slope in sorted(out["slopes"].items())
    ]
    return _write_text(_output_path(config), _csv_artifact(config, _STUDY_COLUMNS, out["rows"], trailer))


def _cmd_coverage(config: RunConfig) -> str:
    n_grid = config.n_grid if config.n_grid else (config.n,)
    plan = _build_plan(config, n_grid)
    out = coverage_study(plan, level=config.ci_level, variance_scale=config.variance_scale)
    return _write_text(_output_path(config), _csv_artifact(config, _STUDY_COLUMNS, out["rows"]))


def _limiting_variance_cell(model, mask0, estimator: str, cache: dict):
    if estimator not in ("kernel_t", "kernel_sobol", "nn_t"):
        return ""
    if "oracles" not in cache:
        cache["oracles"] = variance_oracles(model, mask0)
    oracles = cache["oracles"]
    if estimator == "kernel_t":
        # U-statistic CLT: 4 tau^2 = 4 Var(Y g1(X))
        mom = oracles.moments
        first = mom(lambda y, x: y * oracles.g1(x))
        second = mom(lambda y, x: (y * oracles.g1(x)) ** 2)
        return 4.0 * (second - first**2)
    from .baselines import limiting_variance_nn, limiting_variance_sobol_centered

    if estimator == "kernel_sobol":
        # the shipped Sobol' estimator centers the output first
        return limiting_variance_sobol_centered(oracles)
    return limiting_variance_nn(oracles)


def _cmd_compare(config: RunConfig) -> str:
    plan = _build_plan(config, (config.n,))
    out = convergence_study(plan)
    cache = {}
    rows = []
    for row in out["rows"]:
        row = dict(row)
        row["limiting_variance"] = _limiting_variance_cell(plan.model, plan.masks[0], row["estimator"], cache)
        rows.append(row)
    return _write_text(_output_path(config), _csv_artifact(config, _COMPARE_COLUMNS, rows))


_DISPATCH = {
    "estimate": _cmd_estimate,
    "bandwidth": _cmd_bandwidth,
    "convergence": _cmd_convergence,
    "coverage": _cmd_coverage,
    "compare": _cmd_compare,
}


def _error_payload(exc: Exception) -> str:
    info = {"message": str(exc), "type": type(exc).__name__}
    field = getattr(exc, "field", None)
    if field is not None:
        info["field"] = field
    line = getattr(exc, "line", None)
    if line is not None:
        info["line"] = line
    return json.dumps({"schema_version": SCHEMA_VERSION, "error": info}, sort_keys=True) + "\n"


def run(config: RunConfig) -> int:
    """Execute one configured command; 0 on success, 1 with error JSON on stdout."""
    try:
        path = _DISPATCH[config.command](config)
    except (MirrorSobolError, OSError) as exc:
        sys.stdout.write(_error_payload(exc))
        return 1
    sys.stdout.write(path + "\n")
    return 0


# --------------------------------------------------------------------------
# argument parsing


def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _str_list(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorsobol",
        description="Mirror-corrected kernel estimation of Sobol' indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    model_names = [m.name for m in builtin_models()]

    def common(sp, study: bool):
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--csv", help="sample CSV with header v1,...,vp,y")
        src.add_argument("--model", choices=model_names, help="builtin analytic model")
        sp.add_argument("--n", type=int, help="sample size for builtin input")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--mask", type=_int_list, required=True, help="1-based input axes, e.g. 1 or 1,3")
        sp.add_argument("--order", dest="kernel_order", type=int, default=2, help="kernel order k")
        band = sp.add_mutually_exclusive_group()
        band.add_argument("--h", type=float, help="fixed bandwidth")
        band.add_argument("--auto", action="store_true", help="data-driven bandwidth selection")
        band.add_argument("--rule", nargs=2, type=float, metavar=("C", "GAMMA"), help="h = C * n^-GAMMA")
        sp.add_argument("--density", type=_json_arg, default=None, help='"exact" or {"plugin": ...} JSON')
        sp.add_argument("--marginals", type=_json_arg, help='{"marginals": [...]} JSON for CSV input')
        sp.add_argument("--output", help="output file path")
        sp.add_argument("--ci-level", dest="ci_level", type=float, default=0.95)
        sp.add_argument("--threads", type=int, default=1, help=f"study worker threads, 1 to {_MAX_THREADS}")
        if study:
            sp.add_argument("--n-grid", dest="n_grid", type=_int_list, default=(), help="e.g. 500,1000,2000")
            sp.add_argument("--seeds", type=int, default=100, help="number of seeds (0..seeds-1)")
            sp.add_argument(
                "--estimators", type=_str_list, default=("kernel",), help=f"subset of {','.join(_ESTIMATOR_NAMES)}"
            )

    common(sub.add_parser("estimate", help="one estimate with CI, JSON out"), study=False)
    common(sub.add_parser("bandwidth", help="bandwidth selection curve, JSON out"), study=False)
    common(sub.add_parser("convergence", help="RMSE vs n study, CSV out"), study=True)
    cov = sub.add_parser("coverage", help="CI coverage study, CSV out")
    common(cov, study=True)
    cov.add_argument("--variance-scale", dest="variance_scale", type=float, default=1.0)
    common(sub.add_parser("compare", help="estimator comparison table, CSV out"), study=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    kwargs = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if "density" in kwargs and kwargs["density"] is None:
        del kwargs["density"]
    if kwargs.get("rule") is not None:
        kwargs["rule"] = tuple(kwargs["rule"])
    try:
        config = RunConfig(**kwargs)
    except MirrorSobolError as exc:
        sys.stdout.write(_error_payload(exc))
        return 2
    return run(config)
