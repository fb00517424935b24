"""Test-program lint rules.

Vets test configurations against the circuit and against each other:
stimulus parameter ranges must be finite and physically plausible for
their declared unit, every referenced node / source / probe must exist,
tolerance-box functions must produce positive finite half-widths of the
right arity (and not spike non-monotonically inside the parameter box),
and configuration names must be unique.

Configurations are accessed duck-typed (``name`` / ``description`` /
``parameters`` / ``procedure`` / ``box_function``) so this module never
imports :mod:`repro.testgen` — which keeps the import graph acyclic
when ``generate_tests`` itself calls into the linter for pre-flight.
"""

from __future__ import annotations

import itertools
import math

from repro.circuit.elements import (
    CurrentSource,
    Inductor,
    VCVS,
    VoltageSource,
)
from repro.hashing import attribute_signature
from repro.lint.core import (
    ERROR,
    WARNING,
    Diagnostic,
    LintContext,
    rule,
)
from repro.units import format_value

__all__ = []

#: Plausible stimulus ranges per declared parameter unit.  Deliberately
#: generous — they catch unit-suffix mistakes (mV vs kV), not tight
#: design limits.  Unknown units are not checked.
_PLAUSIBLE_BY_UNIT = {
    "V": (-1e3, 1e3),
    "A": (-10.0, 10.0),
    "Hz": (0.0, 1e10),
    "s": (0.0, 1e3),
    "ohm": (0.0, 1e12),
}

#: Cap on corner samples per configuration (2**n grows fast).
_MAX_BOX_CORNERS = 16

#: Spike factor for the monotonicity probe: the half-width at an axis
#: midpoint may not exceed 10x (or undercut 1/10x) both axis endpoints.
_BOX_SPIKE_FACTOR = 10.0


def _config_location(config) -> str:
    return f"configuration {config.name!r}"


@rule("test.duplicate-config", scope="tests", severity=ERROR,
      summary="duplicate test-configuration names",
      rationale="executors and compaction key tests by configuration "
                "name; duplicates make results ambiguous")
def check_duplicate_config(ctx: LintContext):
    seen: dict[str, int] = {}
    for config in ctx.configurations:
        key = config.name.lower()
        seen[key] = seen.get(key, 0) + 1
    for name in sorted(n for n, count in seen.items() if count > 1):
        yield Diagnostic(
            "test.duplicate-config", ERROR, name,
            f"configuration {name!r}",
            f"configuration name {name!r} appears {seen[name]} times",
            hint="rename the duplicates")

    # Same content under different names wastes generation slots.
    def signature(config):
        # Full procedure state plus the parameter space.  Two
        # configurations matching on all of it measure the same thing.
        parts = [attribute_signature(config.procedure)]
        for parameter in config.parameters:
            parts.append(f"{parameter.name}:{parameter.lower!r}:"
                         f"{parameter.upper!r}:{parameter.seed!r}")
        return "|".join(parts)

    groups: dict[str, list[str]] = {}
    for config in ctx.configurations:
        groups.setdefault(signature(config), []).append(config.name)
    for sig in sorted(groups, key=lambda s: sorted(groups[s])[0]):
        names = sorted(set(groups[sig]))
        if len(names) > 1:
            yield Diagnostic(
                "test.duplicate-config", WARNING, names[0],
                f"configurations {', '.join(names)}",
                f"configurations {', '.join(names)} share procedure "
                "and parameter space (identical measurements under "
                "different names)",
                hint="keep one; duplicates only inflate the search")


@rule("test.unknown-node", scope="tests", severity=ERROR,
      summary="configuration references a node or source absent from "
              "the circuit",
      rationale="the mismatch would only surface as a mid-run "
                "TestGenerationError inside a worker process")
def check_unknown_node(ctx: LintContext):
    circuit = ctx.circuit
    if circuit is None:
        return
    has_node = circuit.node_test()
    for config in ctx.configurations:
        missing: list[str] = []
        description = getattr(config, "description", None)
        if description is not None:
            for group, nodes in (("control", description.control_nodes),
                                 ("observe", description.observe_nodes)):
                for node in nodes:
                    if not has_node(node):
                        missing.append(f"{group} node {node!r}")
        procedure = getattr(config, "procedure", None)
        source = getattr(procedure, "source", None)
        if source is not None:
            if source not in circuit:
                missing.append(f"stimulus source {source!r}")
            elif not isinstance(circuit.element(source),
                                (VoltageSource, CurrentSource)):
                missing.append(f"stimulus element {source!r} "
                               "(not a source)")
        observe = getattr(procedure, "observe", None)
        if observe is not None and not has_node(observe):
            missing.append(f"observe node {observe!r}")
        for probe in getattr(procedure, "probes", ()):
            if probe.kind == "v":
                if not has_node(probe.target):
                    missing.append(f"probed node {probe.target!r}")
            elif probe.target not in circuit:
                missing.append(f"probed element {probe.target!r}")
            elif not isinstance(circuit.element(probe.target),
                                (VoltageSource, Inductor, VCVS)):
                missing.append(
                    f"probed element {probe.target!r} (carries no "
                    "branch current in MNA)")
        for what in missing:
            yield Diagnostic(
                "test.unknown-node", ERROR, config.name,
                _config_location(config),
                f"configuration {config.name!r} references {what} not "
                f"present in circuit {circuit.name!r}",
                hint="match the configuration to the macro's node and "
                     "source names")


@rule("test.stimulus-range", scope="tests", severity=ERROR,
      summary="stimulus parameter bounds non-finite or outside the "
              "plausible range of their unit",
      rationale="infinite bounds break the normalized optimizer space; "
                "kilovolt 'levels' are unit-suffix typos that would "
                "drive every device into absurd regions")
def check_stimulus_range(ctx: LintContext):
    for config in ctx.configurations:
        for parameter in config.parameters:
            values = ((parameter.lower, "lower bound"),
                      (parameter.upper, "upper bound"),
                      (parameter.seed, "seed"))
            bad = [what for value, what in values
                   if not math.isfinite(value)]
            for what in bad:
                yield Diagnostic(
                    "test.stimulus-range", ERROR,
                    f"{config.name}:{parameter.name}",
                    _config_location(config),
                    f"parameter {parameter.name!r} of {config.name!r} "
                    f"has non-finite {what}",
                    hint="stimulus bounds must be finite to normalize")
            if bad:
                continue
            unit = getattr(parameter.spec, "unit", "")
            plausible = _PLAUSIBLE_BY_UNIT.get(unit)
            if plausible is None:
                continue
            low, high = plausible
            for value, what in values:
                if not low <= value <= high:
                    yield Diagnostic(
                        "test.stimulus-range", WARNING,
                        f"{config.name}:{parameter.name}",
                        _config_location(config),
                        f"parameter {parameter.name!r} of "
                        f"{config.name!r} has {what} "
                        f"{format_value(value, unit)} outside the "
                        f"plausible range "
                        f"[{format_value(low, unit)}, "
                        f"{format_value(high, unit)}]",
                        hint="check the SPICE unit suffix")


def _box_samples(config):
    """Representative points of the parameter box: seed, center, corners."""
    bounds = config.parameters.bounds
    seeds = tuple(float(s) for s in config.parameters.seeds)
    center = tuple(float(lo + hi) / 2.0 for lo, hi in bounds)
    samples = [("seed", seeds), ("center", center)]
    corners = itertools.product(*[(float(lo), float(hi))
                                  for lo, hi in bounds])
    for k, corner in enumerate(corners):
        if k >= _MAX_BOX_CORNERS:
            break
        samples.append((f"corner {corner}", corner))
    return samples


@rule("test.box-sanity", scope="tests", severity=ERROR,
      summary="tolerance-box function fails, returns the wrong arity "
              "or non-positive half-widths",
      rationale="a box with the wrong number of half-widths (or zero / "
                "negative ones) makes every detection verdict "
                "meaningless, and only fails deep inside generation")
def check_box_sanity(ctx: LintContext):
    for config in ctx.configurations:
        box = getattr(config, "box_function", None)
        if box is None:
            continue
        expected = config.n_return_values
        for label, point in _box_samples(config):
            try:
                widths = [float(w) for w in box.half_widths(point)]
            except Exception as exc:  # noqa: BLE001 - any failure is a finding
                yield Diagnostic(
                    "test.box-sanity", ERROR, config.name,
                    _config_location(config),
                    f"box function of {config.name!r} raised at "
                    f"{label}: {exc}",
                    hint="the box must be evaluable everywhere inside "
                         "the parameter bounds")
                break
            if len(widths) != expected:
                yield Diagnostic(
                    "test.box-sanity", ERROR, config.name,
                    _config_location(config),
                    f"box function of {config.name!r} returns "
                    f"{len(widths)} half-width(s) at {label} but the "
                    f"procedure produces {expected} return value(s)",
                    hint="one tolerance half-width per return value")
                break
            if any(not math.isfinite(w) or w <= 0.0 for w in widths):
                yield Diagnostic(
                    "test.box-sanity", ERROR, config.name,
                    _config_location(config),
                    f"box function of {config.name!r} yields "
                    f"non-positive or non-finite half-width(s) "
                    f"{widths} at {label}",
                    hint="tolerance half-widths must be positive")
                break


@rule("test.box-monotonic", scope="tests", severity=WARNING,
      summary="tolerance box spikes non-monotonically along a "
              "parameter axis",
      rationale="measurement accuracy varies smoothly with stimulus "
                "level; an interior spike usually means a bad "
                "calibration point or an inverted interpolation")
def check_box_monotonic(ctx: LintContext):
    for config in ctx.configurations:
        box = getattr(config, "box_function", None)
        if box is None:
            continue
        bounds = config.parameters.bounds
        seeds = [float(s) for s in config.parameters.seeds]
        names = config.parameters.names
        for axis, (lo, hi) in enumerate(bounds):
            lo, hi = float(lo), float(hi)
            probes = []
            for level in (lo, (lo + hi) / 2.0, hi):
                point = list(seeds)
                point[axis] = level
                try:
                    probes.append([float(w)
                                   for w in box.half_widths(point)])
                except Exception:  # noqa: BLE001 - box-sanity reports it
                    probes = None
                    break
            if probes is None:
                continue
            low_w, mid_w, high_w = probes
            for k, (wl, wm, wh) in enumerate(zip(low_w, mid_w, high_w)):
                if min(wl, wh) <= 0.0:
                    continue  # box-sanity's finding, not ours
                ceiling = _BOX_SPIKE_FACTOR * max(wl, wh)
                floor = min(wl, wh) / _BOX_SPIKE_FACTOR
                if wm > ceiling or wm < floor:
                    yield Diagnostic(
                        "test.box-monotonic", WARNING,
                        f"{config.name}:{names[axis]}",
                        _config_location(config),
                        f"box half-width #{k} of {config.name!r} "
                        f"spikes to {wm:g} at the midpoint of "
                        f"parameter {names[axis]!r} (endpoints "
                        f"{wl:g} / {wh:g})",
                        hint="inspect the calibration points feeding "
                             "the box function")
