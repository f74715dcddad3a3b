"""Scenario spec loading and validation (YAML/JSON -> ScenarioSpec).

Every schema violation raises :class:`SpecError` carrying the spec file,
the offending field's dotted path and — for YAML — its *line number*,
recovered from the YAML node tree (``yaml.compose``) that mirrors the
parsed data.  JSON specs get file+field-accurate errors (the stdlib
parser only exposes line numbers for syntax errors).

Config-level problems reuse the real validators: override paths are
checked against the live :class:`SimConfig` field tree
(:mod:`repro.core.overrides`) and resolved configs run
:meth:`SimConfig.validate`, so a spec can never express a config the
constructor would reject — and the constructor's one-line physics
errors surface *as spec errors at the overrides block*, not tracebacks.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.config import SimConfig
from repro.core.overrides import OverrideError, apply_override
from repro.dram.timing import DRAM_PRESETS
from repro.mc.registry import SCHEDULERS
from repro.scenarios.spec import (
    KNOWN_METRICS,
    SPEC_VERSION,
    WORKLOAD_KINDS,
    FigureRecipe,
    ScenarioSpec,
    SpecError,
    WorkloadSpec,
)
from repro.workloads.profiles import ALL_PROFILES
from repro.workloads.suite import Scale, benchmark_names
from repro.workloads.trace import KernelTrace, TraceFormatError

__all__ = ["find_specs", "load_spec", "validate_spec_file"]

_TOP_KEYS = {
    "spec_version",
    "name",
    "description",
    "preset",
    "overrides",
    "workload",
    "schedulers",
    "scale",
    "seeds",
    "perfect",
    "metrics",
    "figure",
    "sweep",
}
_WORKLOAD_KEYS = {"kind", "benchmarks", "traces"}
_FIGURE_KEYS = {"metric", "normalize_to", "title"}
_SWEEP_KEYS = {"workers", "timeout_s", "retries"}


# ----------------------------------------------------------------------
# document reading (data + line map)
# ----------------------------------------------------------------------
def _require_yaml(path: str):
    try:
        import yaml
    except ImportError:  # pragma: no cover - baked into the toolchain
        raise SpecError(
            "reading YAML specs needs the PyYAML package (pip install "
            "pyyaml); JSON specs work without it",
            path=path,
        ) from None
    return yaml


def _yaml_line_map(yaml_mod, text: str) -> dict[tuple, int]:
    """{field-path-tuple: 1-based line} for every node in the document.

    Mapping entries are located at their *key* token, sequence elements
    at the element itself — the line a human would point at.
    """
    lines: dict[tuple, int] = {}
    try:
        root = yaml_mod.compose(text)
    except yaml_mod.YAMLError:
        return lines
    if root is None:
        return lines

    def walk(node, prefix: tuple) -> None:
        lines.setdefault(prefix, node.start_mark.line + 1)
        if isinstance(node, yaml_mod.MappingNode):
            for key_node, value_node in node.value:
                key = str(key_node.value)
                lines[prefix + (key,)] = key_node.start_mark.line + 1
                walk(value_node, prefix + (key,))
        elif isinstance(node, yaml_mod.SequenceNode):
            for i, item in enumerate(node.value):
                walk(item, prefix + (str(i),))

    walk(root, ())
    return lines


def _read_document(path: str) -> tuple[object, dict[tuple, int]]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"unreadable spec file ({exc})", path=path) from exc
    if path.endswith(".json"):
        import json

        try:
            return json.loads(text), {}
        except json.JSONDecodeError as exc:
            raise SpecError(
                f"not valid JSON: {exc.msg}", path=path, line=exc.lineno
            ) from exc
    yaml_mod = _require_yaml(path)
    try:
        data = yaml_mod.safe_load(text)
    except yaml_mod.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise SpecError(f"not valid YAML: {exc}", path=path, line=line) from exc
    return data, _yaml_line_map(yaml_mod, text)


# ----------------------------------------------------------------------
# validation cursor
# ----------------------------------------------------------------------
def _dotted(parts: tuple) -> str:
    out = ""
    for p in parts:
        out += f"[{p}]" if p.isdigit() else (f".{p}" if out else p)
    return out


class _Ctx:
    """Carries (file, line map) so checks can raise located errors."""

    def __init__(self, path: str, lines: dict[tuple, int]) -> None:
        self.path = path
        self.lines = lines

    def fail(self, where: tuple, message: str) -> "SpecError":
        line = self.lines.get(where)
        # Fall back to the nearest located ancestor (JSON has no map).
        probe = where
        while line is None and probe:
            probe = probe[:-1]
            line = self.lines.get(probe)
        return SpecError(
            message, path=self.path, line=line, spec_field=_dotted(where)
        )

    def str_at(self, doc: dict, where: tuple, *, required: bool = False,
               default: str = "") -> str:
        value = doc.get(where[-1])
        if value is None and not required:
            return default
        if not isinstance(value, str) or not value:
            raise self.fail(where, f"must be a non-empty string, got {value!r}")
        return value

    def str_list_at(self, value, where: tuple, what: str) -> list[str]:
        if not isinstance(value, list) or not value:
            raise self.fail(where, f"must be a non-empty list of {what}")
        for i, item in enumerate(value):
            if not isinstance(item, str) or not item:
                raise self.fail(
                    where + (str(i),),
                    f"each entry must be a non-empty string, got {item!r}",
                )
        return value


def _check_unknown_keys(
    ctx: _Ctx, doc: dict, allowed: set[str], where: tuple
) -> None:
    for key in doc:
        if key not in allowed:
            raise ctx.fail(
                where + (str(key),),
                f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})",
            )


# ----------------------------------------------------------------------
# section validators
# ----------------------------------------------------------------------
def _validate_workload(ctx: _Ctx, doc: dict, spec_dir: str) -> WorkloadSpec:
    raw = doc.get("workload")
    if not isinstance(raw, dict):
        raise ctx.fail(
            ("workload",),
            "required section: {kind: synthetic|algorithmic|trace, "
            "benchmarks: [...] or traces: {...}}",
        )
    _check_unknown_keys(ctx, raw, _WORKLOAD_KEYS, ("workload",))
    kind = raw.get("kind")
    if kind not in WORKLOAD_KINDS:
        raise ctx.fail(
            ("workload", "kind"),
            f"must be one of {', '.join(WORKLOAD_KINDS)}, got {kind!r}",
        )
    if kind == "trace":
        if "benchmarks" in raw:
            raise ctx.fail(
                ("workload", "benchmarks"),
                "a trace workload lists 'traces', not 'benchmarks'",
            )
        traces = raw.get("traces")
        if not isinstance(traces, dict) or not traces:
            raise ctx.fail(
                ("workload", "traces"),
                "must be a non-empty mapping of name -> trace file path",
            )
        resolved: dict[str, str] = {}
        for name, rel in traces.items():
            where = ("workload", "traces", str(name))
            if not isinstance(rel, str) or not rel:
                raise ctx.fail(where, f"must be a file path, got {rel!r}")
            full = rel if os.path.isabs(rel) else os.path.join(spec_dir, rel)
            if not os.path.exists(full):
                raise ctx.fail(where, f"trace file not found: {full}")
            resolved[str(name)] = full
        return WorkloadSpec(kind=kind, traces=resolved)
    if "traces" in raw:
        raise ctx.fail(
            ("workload", "traces"),
            f"'traces' only applies to kind: trace (this is {kind!r})",
        )
    benches = ctx.str_list_at(
        raw.get("benchmarks"), ("workload", "benchmarks"), "benchmark names"
    )
    valid = set(ALL_PROFILES) if kind == "synthetic" else set(benchmark_names())
    for i, bench in enumerate(benches):
        if bench not in valid:
            hint = (
                " (no synthetic profile — try kind: algorithmic)"
                if kind == "synthetic" and bench in benchmark_names()
                else ""
            )
            raise ctx.fail(
                ("workload", "benchmarks", str(i)),
                f"unknown benchmark {bench!r} for kind {kind!r}{hint}; "
                f"choose from {', '.join(sorted(valid))}",
            )
    return WorkloadSpec(kind=kind, benchmarks=tuple(benches))


def _validate_figure(
    ctx: _Ctx, doc: dict, schedulers: tuple[str, ...]
) -> Optional[FigureRecipe]:
    raw = doc.get("figure")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ctx.fail(("figure",), "must be a mapping (metric, normalize_to, title)")
    _check_unknown_keys(ctx, raw, _FIGURE_KEYS, ("figure",))
    metric = raw.get("metric")
    if metric not in KNOWN_METRICS:
        raise ctx.fail(
            ("figure", "metric"),
            f"unknown metric {metric!r}; choose from {', '.join(KNOWN_METRICS)}",
        )
    normalize_to = raw.get("normalize_to") or ""
    if normalize_to and normalize_to not in schedulers:
        raise ctx.fail(
            ("figure", "normalize_to"),
            f"{normalize_to!r} is not in this scenario's schedulers list",
        )
    title = raw.get("title") or ""
    if not isinstance(title, str):
        raise ctx.fail(("figure", "title"), f"must be a string, got {title!r}")
    return FigureRecipe(metric=metric, normalize_to=normalize_to, title=title)


def _validate_sweep_opts(ctx: _Ctx, doc: dict) -> dict:
    raw = doc.get("sweep")
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ctx.fail(("sweep",), "must be a mapping (workers, timeout_s, retries)")
    _check_unknown_keys(ctx, raw, _SWEEP_KEYS, ("sweep",))
    out: dict = {}
    for key, minimum in (("workers", 0), ("retries", 0)):
        if key in raw:
            v = raw[key]
            if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
                raise ctx.fail(
                    ("sweep", key), f"must be an integer >= {minimum}, got {v!r}"
                )
            out[key] = v
    if "timeout_s" in raw:
        v = raw["timeout_s"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
            raise ctx.fail(
                ("sweep", "timeout_s"), f"must be a positive number, got {v!r}"
            )
        out["timeout_s"] = float(v)
    return out


def _validate_overrides(ctx: _Ctx, doc: dict) -> dict[str, object]:
    raw = doc.get("overrides")
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ctx.fail(
            ("overrides",), "must be a mapping of dotted.field.path -> value"
        )
    base = SimConfig()
    out: dict[str, object] = {}
    for key, value in raw.items():
        where = ("overrides", str(key))
        if not isinstance(key, str):
            raise ctx.fail(where, f"field path must be a string, got {key!r}")
        if not isinstance(value, (str, int, float, bool)):
            raise ctx.fail(
                where, f"value must be a scalar, got {type(value).__name__}"
            )
        # Path check only: re-applying the *current* value is a no-op
        # that cannot trip cross-field validation, but walks the same
        # field tree (and produces the same errors) a real edit would.
        try:
            node = base
            for part in key.split("."):
                probe = getattr(node, part, None)
                if probe is None:
                    break
                node = probe
            apply_override(base, key, node)
        except OverrideError as exc:
            raise ctx.fail(where, str(exc)) from exc
        out[key] = value
    return out


def _resolve_config(ctx: _Ctx, spec: ScenarioSpec) -> SimConfig:
    """Build the base config, turning constructor rejections into located
    one-line spec errors (the PR 4 ``--set`` usage-error treatment)."""
    try:
        return spec.resolved_config()
    except OverrideError as exc:  # path errors are pre-checked; belt+braces
        raise ctx.fail(("overrides",), str(exc)) from exc
    except (ValueError, TypeError) as exc:
        raise ctx.fail(("overrides",), f"invalid configuration: {exc}") from exc


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def load_spec(path: str, *, check_traces: bool = False) -> ScenarioSpec:
    """Parse + fully validate one spec file; raises :class:`SpecError`.

    ``check_traces=True`` additionally parses every referenced trace
    file (``repro scenario validate`` uses this; plain loading only
    checks existence so huge traces aren't read twice per run).
    """
    doc, lines = _read_document(path)
    ctx = _Ctx(path, lines)
    if not isinstance(doc, dict):
        raise SpecError(
            "top level must be a mapping of spec fields", path=path, line=1
        )
    _check_unknown_keys(ctx, doc, _TOP_KEYS, ())

    version = doc.get("spec_version")
    if version != SPEC_VERSION:
        raise ctx.fail(
            ("spec_version",),
            f"must be {SPEC_VERSION} (this build's spec format), "
            f"got {version!r}",
        )
    name = ctx.str_at(doc, ("name",), required=True)
    if not all(c.isalnum() or c in "-_" for c in name):
        raise ctx.fail(
            ("name",),
            f"must be a slug of [a-zA-Z0-9_-], got {name!r} "
            "(it keys cache entries and history records)",
        )
    description = ctx.str_at(doc, ("description",))

    preset = doc.get("preset", "gddr5")
    if preset not in DRAM_PRESETS:
        raise ctx.fail(
            ("preset",),
            f"unknown DRAM preset {preset!r}; choose from "
            f"{', '.join(sorted(DRAM_PRESETS))}",
        )

    overrides = _validate_overrides(ctx, doc)
    spec_dir = os.path.dirname(os.path.abspath(path))
    workload = _validate_workload(ctx, doc, spec_dir)

    schedulers = tuple(
        ctx.str_list_at(doc.get("schedulers"), ("schedulers",), "scheduler names")
    )
    for i, sched in enumerate(schedulers):
        if sched not in SCHEDULERS:
            raise ctx.fail(
                ("schedulers", str(i)),
                f"unknown scheduler {sched!r}; choose from "
                f"{', '.join(sorted(SCHEDULERS))}",
            )

    raw_scale = doc.get("scale", "quick")
    if not isinstance(raw_scale, str) or raw_scale.upper() not in Scale.__members__:
        raise ctx.fail(
            ("scale",),
            f"must be one of {', '.join(s.name.lower() for s in Scale)}, "
            f"got {raw_scale!r}",
        )
    scale = raw_scale.upper()

    raw_seeds = doc.get("seeds", [1])
    if not isinstance(raw_seeds, list) or not raw_seeds:
        raise ctx.fail(("seeds",), "must be a non-empty list of integers")
    seeds: list[int] = []
    for i, s in enumerate(raw_seeds):
        if not isinstance(s, int) or isinstance(s, bool):
            raise ctx.fail(
                ("seeds", str(i)), f"must be an integer, got {s!r}"
            )
        if s not in seeds:
            seeds.append(s)

    perfect = doc.get("perfect", False)
    if not isinstance(perfect, bool):
        raise ctx.fail(("perfect",), f"must be true/false, got {perfect!r}")

    raw_metrics = doc.get("metrics", [])
    if raw_metrics is None:
        raw_metrics = []
    if not isinstance(raw_metrics, list):
        raise ctx.fail(("metrics",), "must be a list of summary metric names")
    for i, m in enumerate(raw_metrics):
        if m not in KNOWN_METRICS:
            raise ctx.fail(
                ("metrics", str(i)),
                f"unknown metric {m!r}; choose from {', '.join(KNOWN_METRICS)}",
            )

    figure = _validate_figure(ctx, doc, schedulers)
    sweep_opts = _validate_sweep_opts(ctx, doc)

    spec = ScenarioSpec(
        name=name,
        description=description,
        preset=preset,
        overrides=overrides,
        workload=workload,
        schedulers=schedulers,
        scale=scale,
        seeds=tuple(seeds),
        perfect=perfect,
        metrics=tuple(raw_metrics),
        figure=figure,
        source=os.path.abspath(path),
        **sweep_opts,
    )
    _resolve_config(ctx, spec)  # constructor-level validation, located
    if check_traces:
        for tname, tpath in workload.traces.items():
            try:
                KernelTrace.load_json(tpath)
            except TraceFormatError as exc:
                raise ctx.fail(
                    ("workload", "traces", tname), f"broken trace: {exc}"
                ) from exc
    return spec


def find_specs(directory: str) -> list[str]:
    """Spec files directly inside ``directory`` (``*.yaml``/``*.yml``/
    ``*.json``), sorted.  ``*.trace.json`` files are trace payloads, not
    specs, and are skipped."""
    try:
        entries = sorted(os.listdir(directory))
    except OSError as exc:
        raise SpecError(f"cannot list spec directory ({exc})", path=directory)
    out = []
    for entry in entries:
        if entry.endswith(".trace.json"):
            continue
        if entry.endswith((".yaml", ".yml", ".json")):
            out.append(os.path.join(directory, entry))
    return out


def validate_spec_file(path: str) -> Optional[SpecError]:
    """The error one spec file fails with, or None when it is valid."""
    try:
        load_spec(path, check_traces=True)
    except SpecError as exc:
        return exc
    return None
