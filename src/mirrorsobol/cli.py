"""Command-line harness: JSON-configured runs wiring the library modules together.

Four subcommands share one declarative ``RunConfig``:

``estimate``
    one Sobol'/t estimate with CI, written as JSON; under ``auto`` it also
    records the bandwidth selection: the pilot targets and the objective curve;
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
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bandwidth import bandwidth_curve
from .baselines import limiting_variances
from .density import beta_moment_estimator, mirror_kde, uniform_max_estimator
from .domain import Domain
from .errors import MirrorSobolError
from .estimator import FullSample, SubsetSpec, estimate_sobol
from .inputs import input_model_from_json, sample as draw_inputs
from .kernels import MAX_ORDER, build_kernel
from .testbed import (
    _ESTIMATOR_NAMES,
    ExperimentPlan,
    builtin_models,
    convergence_study,
    coverage_study,
    model_by_name,
    variance_oracles,
)

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "MIRRORSOBOL_OUTPUT_DIR"

_STUDIES = ("convergence", "coverage", "compare")
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
# the fields each command reads besides _ALWAYS; RunConfig rejects any other
# field set away from its default, which the artifact would record as if used
_ALWAYS = {"command", "csv", "model", "mask", "output"}
_READS = {
    "estimate": {"n", "seed", "kernel_order", "h", "auto", "rule", "density", "marginals", "ci_level"},
    "convergence": {"kernel_order", "h", "rule", "threads", "n_grid", "seeds", "estimators"},
    "coverage": {"n", "kernel_order", "h", "rule", "ci_level", "threads", "n_grid", "seeds", "variance_scale"},
    "compare": {"n", "kernel_order", "h", "rule", "threads", "seeds", "estimators"},
}
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

    ``_READS`` is the one table of the fields each command reads; CSV input
    reads no ``n`` or ``seed``, a builtin model no ``marginals``, coverage no
    ``n`` beside an ``n_grid``, and a study without the kernel estimator no
    ``h``, ``rule`` or ``kernel_order``.  Any other field set away from its
    default is a ConfigError naming it, so an artifact's config holds only
    what made its numbers.  Exactly one input source (``csv`` or ``model``)
    must be set, and exactly one of the bandwidth modes (``h``, ``auto``,
    ``rule``) that the command reads.  ``mask`` holds 1-based input axes.
    ``auto`` is a bool; ``n``, ``seed``, ``seeds``, ``threads``,
    ``kernel_order`` and the entries of ``mask`` and ``n_grid`` are integers
    and not bools; ``h``, ``ci_level``, ``variance_scale`` and the entries of
    ``rule`` are real numbers and not bools or strings.  Any other value there
    is a ConfigError, not truncated or parsed.  ``density`` is either the
    string ``"exact"`` or a plug-in spec::

        {"plugin": "uniform_max"}
        {"plugin": {"beta_moment": {"b": 1.2}}}
        {"plugin": {"mirror_kde": {"eta": 0.5, "h": 0.2, "m": 4000}}}

    whose reals and integer ``m >= 1`` follow the same rules.  ``uniform_max``
    and ``beta_moment`` take a one-axis mask, and ``m`` (the size of the
    auxiliary draw) needs a builtin model to draw from.

    Studies run seeds 0..seeds-1 at each size of ``n_grid``, or at ``n``.
    The config round-trips losslessly through ``to_json``/``from_json``.
    """

    command: str
    csv: Optional[str] = None
    model: Optional[str] = None
    n: Optional[int] = None
    seed: int = 0
    mask: tuple = ()
    kernel_order: int = 2
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
        if self.command not in _READS:
            raise ConfigError("command", f"command must be one of {list(_READS)}, got {self.command!r}")
        if (self.csv is None) == (self.model is None):
            raise ConfigError("input", "exactly one input source required: csv path or builtin model")
        if self.model is not None:
            try:
                model_by_name(self.model)
            except MirrorSobolError as exc:
                raise ConfigError("model", str(exc)) from None
        if not isinstance(self.auto, bool):
            raise ConfigError("auto", f"auto must be true or false, got {self.auto!r}")
        if self.n is not None:
            object.__setattr__(self, "n", _integer("n", self.n))
            if self.n < 2:
                raise ConfigError("n", f"n must be >= 2, got {self.n}")
        for field in ("seed", "seeds", "threads", "kernel_order"):
            object.__setattr__(self, field, _integer(field, getattr(self, field)))
        if self.seed < 0:
            raise ConfigError("seed", f"seed must be nonnegative, got {self.seed}")

        mask = tuple(_integer("mask", i) for i in self.mask)
        if len(mask) == 0:
            raise ConfigError("mask", "mask must be nonempty (1-based input axes)")
        if len(set(mask)) != len(mask) or any(i < 1 for i in mask):
            raise ConfigError("mask", f"mask must be distinct 1-based axes, got {list(mask)}")
        object.__setattr__(self, "mask", tuple(sorted(mask)))

        if not 1 <= self.kernel_order <= MAX_ORDER:
            raise ConfigError("kernel_order", f"kernel order must be in [1, {MAX_ORDER}], got {self.kernel_order}")

        if self.h is not None:
            object.__setattr__(self, "h", _real("h", self.h))
            if not (self.h > 0 and math.isfinite(self.h)):
                raise ConfigError("bandwidth", f"fixed h must be positive and finite, got {self.h}")
        if self.rule is not None:
            if not (isinstance(self.rule, (list, tuple)) and len(self.rule) == 2):
                raise ConfigError("bandwidth", f"rule must be a (c, gamma) pair, got {self.rule!r}")
            c, gamma = (_real("rule", v) for v in self.rule)
            if not (c > 0 and 0 < gamma < 1):
                raise ConfigError("bandwidth", f"rule needs c > 0 and 0 < gamma < 1, got ({c}, {gamma})")
            object.__setattr__(self, "rule", (c, gamma))

        kind, params = _parse_density_spec(self.density)
        if kind in ("uniform_max", "beta_moment") and len(mask) != 1:
            raise ConfigError("density", f"{kind} is one-dimensional; mask has {len(mask)} axes")
        if "m" in params and self.csv is not None:
            raise ConfigError("density", "mirror_kde on CSV input draws no auxiliary sample, so it takes no m")
        if self.marginals is not None:
            try:
                input_model_from_json(self.marginals)
            except MirrorSobolError as exc:
                raise ConfigError("marginals", f"invalid marginals spec: {exc}") from exc

        object.__setattr__(self, "ci_level", _real("ci_level", self.ci_level))
        if not (0.0 < self.ci_level < 1.0):
            raise ConfigError("ci_level", f"ci_level must be in (0, 1), got {self.ci_level}")
        if not 1 <= self.threads <= _MAX_THREADS:
            raise ConfigError("threads", f"--threads must be in [1, {_MAX_THREADS}], got {self.threads}")

        grid = tuple(_integer("n_grid", v) for v in self.n_grid)
        if any(v < 2 for v in grid) or list(grid) != sorted(set(grid)):
            raise ConfigError("n_grid", f"n_grid must be ascending distinct sizes >= 2, got {list(grid)}")
        object.__setattr__(self, "n_grid", grid)
        if self.command in _STUDIES and self.model is None:
            raise ConfigError("input", f"{self.command} needs a builtin model (truth is required)")
        if self.command == "convergence" and len(grid) == 0:
            raise ConfigError("n_grid", "convergence needs a nonempty n_grid")

        if self.seeds < 1:
            raise ConfigError("seeds", f"seeds must be >= 1, got {self.seeds}")
        ests = tuple(str(e) for e in self.estimators)
        unknown = set(ests) - set(_ESTIMATOR_NAMES)
        if len(ests) == 0 or unknown:
            raise ConfigError("estimators", f"estimators must be drawn from {list(_ESTIMATOR_NAMES)}, got {list(ests)}")
        object.__setattr__(self, "estimators", ests)
        if "rank" in ests and len(self.mask) != 1:
            raise ConfigError("estimators", f"rank takes a one-axis mask only, got mask {list(self.mask)}")
        object.__setattr__(self, "variance_scale", _real("variance_scale", self.variance_scale))
        if not (self.variance_scale > 0):
            raise ConfigError("variance_scale", f"variance_scale must be positive, got {self.variance_scale}")
        # the command's row, narrowed by the input source and the estimators
        reads = _READS[self.command] - ({"n", "seed"} if self.csv is not None else {"marginals"})
        if "n_grid" in reads and self.n_grid:
            reads -= {"n"}
        if "estimators" in reads and "kernel" not in self.estimators:
            reads -= {"h", "rule", "kernel_order"}
        if "n" in reads and self.n is None:
            needs = "n or n_grid" if "n_grid" in reads else "n"
            raise ConfigError("n", f"{self.command} on a builtin model needs {needs}")
        modes = [m for m in ("h", "auto", "rule") if m in reads]
        chosen = [m for m in modes if getattr(self, m) not in (None, False)]
        if modes and len(chosen) != 1:
            raise ConfigError("bandwidth", f"{self.command} takes exactly one bandwidth mode of {modes}, got {chosen}")
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name not in reads | _ALWAYS and value != field.default:
                shown = list(value) if isinstance(value, tuple) else value
                message = f"{self.command} does not read {field.name} here (it reads {sorted(reads)}), got {shown!r}"
                raise ConfigError(field.name, message)

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
        return RunConfig(**obj)  # __post_init__ turns the JSON lists into tuples


def _integer(field: str, value, name: str = "") -> int:
    """value as an int, or a ConfigError naming field: a fraction is not truncated, and a bool is no integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(field, f"{name or field} takes integers, got {value!r}")
    return int(value)


def _real(field: str, value, name: str = "") -> float:
    """value as a float, or a ConfigError naming field: a string is not parsed, and a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(field, f"{name or field} takes real numbers, got {value!r}")
    return float(value)


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
            return ("beta_moment", {"b": _real("density", params["b"], "beta_moment b")})
        if name == "mirror_kde":
            extra = set(params) - {"eta", "h", "m"}
            if "eta" not in params or extra:
                raise ConfigError("density", f"mirror_kde takes eta (required), h, m; got {sorted(params)}")
            out = {"eta": _real("density", params["eta"], "mirror_kde eta")}
            if "h" in params:
                out["h"] = _real("density", params["h"], "mirror_kde h")
            if "m" in params:
                out["m"] = _integer("density", params["m"], "mirror_kde m")
                if out["m"] < 1:
                    raise ConfigError("density", f"mirror_kde m must be >= 1, got {out['m']}")
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


def _setup_density(config: RunConfig, fs: FullSample, mask0: tuple, kernel, input_model):
    """Returns (f_x, full-p domain, density info dict for the artifact)."""
    kind, params = _parse_density_spec(config.density)
    if kind == "exact":
        if input_model is None:
            raise ConfigError("marginals", "exact density needs a builtin model or a marginals spec")
        return input_model, input_model.domain, {"kind": "exact"}
    base = input_model.domain if input_model is not None else _data_box(fs)
    if kind in ("uniform_max", "beta_moment"):  # RunConfig holds them to one axis
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
    est = mirror_kde(pts, kernel, h_kde=params.get("h"), eta=params["eta"], domain=domain.subdomain(mask0))
    return est.eval_rows, domain, {"kind": est.kind, "params": est.params}


def _resolve_h(config: RunConfig, fs: FullSample, spec, kernel, f_x, domain, input_model):
    """Returns (h, bandwidth info dict); runs the selection algorithm under auto."""
    if config.h is not None:
        return config.h, {"mode": "fixed", "h": config.h}
    if config.rule is not None:
        h = _h_rule_fn(config)(fs.n)
        c, gamma = config.rule
        return h, {"mode": "rule", "c": c, "gamma": gamma, "h": h}
    out = bandwidth_curve(fs, spec, kernel, f_x, domain=domain, input_model=input_model)
    return out["h_star"], {
        "mode": "auto",
        "h": out["h_star"],
        "target": out["target"],
        "target_printed": out["target_printed"],
        "objective_curve": out["curve"],  # [(h, |T~(h) - target|), ...]
    }


def _h_rule_fn(config: RunConfig):
    if config.rule is None:  # fixed h, or no kernel to take one
        return lambda n: config.h
    c, gamma = config.rule
    return lambda n: c * n ** (-gamma)


def _build_plan(config: RunConfig, n_grid: tuple) -> ExperimentPlan:
    model = model_by_name(config.model)
    return ExperimentPlan(
        model=model,
        mask=_mask0(config, model.input_model.p),
        n_grid=n_grid,
        h_rule=_h_rule_fn(config),
        kernel_order=config.kernel_order,
        seeds=config.seeds,
        estimators=config.estimators,
        threads=config.threads,
    )


# --------------------------------------------------------------------------
# artifact serialization


def _output_path(config: RunConfig) -> str:
    ext = "json" if config.command == "estimate" else "csv"
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
    if config.model is not None:
        model = model_by_name(config.model)
        fs = model.draw(config.n, config.seed)
        input_model = model.input_model
    else:
        fs = load_sample_csv(config.csv)
        input_model = input_model_from_json(config.marginals) if config.marginals is not None else None
        if input_model is not None and input_model.p != fs.p:
            raise ConfigError("marginals", f"marginals describe {input_model.p} inputs but the CSV has {fs.p}")
    spec = SubsetSpec(_mask0(config, fs.p))
    kernel = build_kernel(config.kernel_order)
    f_x, domain, density_info = _setup_density(config, fs, spec.mask, kernel, input_model)
    h, band_info = _resolve_h(config, fs, spec, kernel, f_x, domain, input_model)
    res = estimate_sobol(fs, spec, kernel, h, f_x, domain=domain, ci_level=config.ci_level)
    body = {"result": res.to_json(), "density": density_info, "bandwidth": band_info}
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
    out = coverage_study(plan, ci_level=config.ci_level, variance_scale=config.variance_scale)
    return _write_text(_output_path(config), _csv_artifact(config, _STUDY_COLUMNS, out["rows"]))


# the compare rows of the three `limiting_variances`, in order: the shipped
# Sobol' estimator centers the output first, and no CLT constant is claimed
# for pf and rank
_LIMITING_VARIANCE_ROWS = ("kernel_t", "kernel_sobol", "nn_t")


def _cmd_compare(config: RunConfig) -> str:
    plan = _build_plan(config, (config.n,))
    rows = convergence_study(plan)["rows"]
    limits = {}
    if {"kernel", "nn"} & set(plan.estimators):
        limits = dict(zip(_LIMITING_VARIANCE_ROWS, limiting_variances(variance_oracles(plan.model, plan.mask))))
    for row in rows:
        row["limiting_variance"] = limits.get(row["estimator"], "")
    return _write_text(_output_path(config), _csv_artifact(config, _COMPARE_COLUMNS, rows))


_DISPATCH = {
    "estimate": _cmd_estimate,
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


def _json_list(text: str) -> tuple:
    return tuple(_json_arg(v) for v in text.split(",") if v.strip())


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

    def read_by(field: str) -> str:
        return "; read by " + ", ".join(c for c in _READS if field in _READS[c])

    # every command takes every flag, and unset flags stay out of the
    # namespace: RunConfig alone owns the defaults and the rules, so the
    # number and bool flags take any JSON value and leave its type to it
    for name, summary in (
        ("estimate", "one estimate with CI, JSON out"),
        ("convergence", "RMSE vs n study, CSV out"),
        ("coverage", "CI coverage study, CSV out"),
        ("compare", "estimator comparison table, CSV out"),
    ):
        sp = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        sp.add_argument("--csv", help="sample CSV with header v1,...,vp,y; read by estimate")
        sp.add_argument("--model", choices=model_names, help="builtin analytic model")
        sp.add_argument("--n", type=_json_arg, help="builtin model's sample size (coverage: without --n-grid)" + read_by("n"))
        sp.add_argument("--seed", type=_json_arg, help="seed of a builtin model" + read_by("seed"))
        sp.add_argument("--mask", type=_json_list, help="1-based input axes, e.g. 1 or 1,3")
        sp.add_argument("--order", dest="kernel_order", type=_json_arg, help="kernel order k" + read_by("kernel_order"))
        sp.add_argument("--h", type=_json_arg, help="fixed bandwidth" + read_by("h"))
        sp.add_argument("--auto", nargs="?", const=True, type=_json_arg, help="data-driven bandwidth selection (alone: true)" + read_by("auto"))
        sp.add_argument("--rule", nargs=2, type=_json_arg, metavar=("C", "GAMMA"), help="h = C n^-GAMMA" + read_by("rule"))
        sp.add_argument("--density", type=_json_arg, help='"exact" or {"plugin": ...} JSON' + read_by("density"))
        sp.add_argument("--marginals", type=_json_arg, help='{"marginals": [...]} JSON' + read_by("marginals"))
        sp.add_argument("--output", help="output file path")
        sp.add_argument("--ci-level", type=_json_arg, help="interval level" + read_by("ci_level"))
        sp.add_argument("--threads", type=_json_arg, help=f"worker threads, 1 to {_MAX_THREADS}" + read_by("threads"))
        sp.add_argument("--n-grid", type=_json_list, help="e.g. 500,1000,2000" + read_by("n_grid"))
        sp.add_argument("--seeds", type=_json_arg, help="number of seeds (0..seeds-1)" + read_by("seeds"))
        sp.add_argument("--estimators", type=_str_list, help=",".join(_ESTIMATOR_NAMES) + read_by("estimators"))
        sp.add_argument("--variance-scale", type=_json_arg, help="0.5: negative control" + read_by("variance_scale"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except MirrorSobolError as exc:
        sys.stdout.write(_error_payload(exc))
        return 2
    return run(config)
