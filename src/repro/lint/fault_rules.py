"""Fault-dictionary lint rules.

These vet a fault list against its target circuit *before* any base is
compiled or factorized: overlay stamps must resolve to real nodes of
their overlay base, must not collapse onto a single net, and must carry
sane conductances; structurally equivalent faults (identical canonical
stamp patterns) are surfaced as pre-simulation collapse candidates for
:mod:`repro.compaction.collapse`.

The rules accept the *raw* fault sequence — unlike
:class:`~repro.faults.dictionary.FaultDictionary` they tolerate (and
report) duplicate fault ids.  Stamp resolution uses
:class:`StampResolutionView`, a duck-typed stand-in for a compiled
circuit that carries only the ``node_index``/``circuit`` attributes the
``stamp_delta`` contract actually reads — so linting a 2000-unknown
ladder never allocates the dense work matrices a real compile would.
"""

from __future__ import annotations

import math

from repro.circuit.mosfet import Mosfet
from repro.errors import FaultModelError, NetlistError
from repro.lint.core import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    LintContext,
    rule,
)
from repro.lint.structure import canonical

__all__ = ["StampResolutionView", "canonical_stamp_signature"]


class StampResolutionView:
    """Node-resolution stand-in for a :class:`CompiledCircuit`.

    ``FaultModel.stamp_delta`` implementations only consult
    ``compiled.node_index`` (membership / ordering of non-ground nodes)
    and ``compiled.circuit`` (element lookup); this view provides
    exactly that from an uncompiled circuit.
    """

    def __init__(self, circuit) -> None:
        self.circuit = circuit
        self.node_index = {name: i
                           for i, name in enumerate(circuit.nodes())}


def _fault_location(fault) -> str:
    return f"fault {fault.fault_id!r}"


def _overlay_views(ctx: LintContext) -> dict:
    views = ctx.cache.setdefault("overlay_views", {})
    return views


def _resolve_stamps(ctx: LintContext, fault):
    """``(view, stamps, error_message)`` for one fault.

    The overlay base is built (cheaply — a netlist copy at most) and
    memoized per ``overlay_base_key``; failures come back as a message
    instead of an exception so each rule can phrase its own diagnostic.
    """
    views = _overlay_views(ctx)
    key = fault.overlay_base_key
    view = views.get(key)
    if view is None:
        try:
            view = StampResolutionView(fault.overlay_base(ctx.circuit))
        except (FaultModelError, NetlistError) as exc:
            return None, (), str(exc)
        views[key] = view
    try:
        stamps = fault.stamp_delta(view)
    except (FaultModelError, NetlistError) as exc:
        return view, (), str(exc)
    return view, stamps, None


@rule("fault.duplicate-id", scope="faults", severity=ERROR,
      summary="duplicate fault ids in the sequence",
      rationale="dictionaries key results by fault_id; duplicates make "
                "verdicts ambiguous (FaultDictionary rejects them, raw "
                "lists cannot)")
def check_duplicate_id(ctx: LintContext):
    seen: dict[str, int] = {}
    for fault in ctx.faults:
        seen[fault.fault_id] = seen.get(fault.fault_id, 0) + 1
    for fault_id in sorted(fid for fid, n in seen.items() if n > 1):
        yield Diagnostic(
            "fault.duplicate-id", ERROR, fault_id,
            f"fault {fault_id!r}",
            f"fault id {fault_id!r} appears {seen[fault_id]} times",
            hint="drop or re-site the duplicates")


@rule("fault.site-unknown", scope="faults", severity=ERROR,
      summary="fault references a node or device absent from the circuit",
      rationale="the injection would only fail at solve time, deep "
                "inside a generation run")
def check_site_unknown(ctx: LintContext):
    if ctx.circuit is None:
        return
    circuit = ctx.circuit
    has_node = circuit.node_test()
    for fault in ctx.faults:
        missing: list[str] = []
        node_a = getattr(fault, "node_a", None)
        node_b = getattr(fault, "node_b", None)
        device = getattr(fault, "device", None)
        if node_a is not None and node_b is not None:
            for node in (node_a, node_b):
                if not has_node(node):
                    missing.append(f"node {node!r}")
        elif device is not None:
            try:
                element = circuit.element(device)
            except NetlistError:
                element = None
            if element is None:
                missing.append(f"device {device!r}")
            elif not isinstance(element, Mosfet):
                missing.append(f"device {device!r} (not a MOSFET)")
        else:
            # Generic fault model: the injection itself is the check.
            try:
                fault.apply(circuit)
            except (FaultModelError, NetlistError) as exc:
                missing.append(str(exc))
        for what in missing:
            yield Diagnostic(
                "fault.site-unknown", ERROR, fault.fault_id,
                _fault_location(fault),
                f"fault {fault.fault_id!r} references {what} not "
                f"present in circuit {circuit.name!r}",
                hint="restrict the fault universe to circuit nodes "
                     "(e.g. the macro's standard node list)")


@rule("fault.stamp-range", scope="faults", severity=ERROR,
      summary="overlay stamp does not resolve in its base circuit",
      rationale="push_overlay would raise mid-run; stamps whose nodes "
                "collapse to one net are rank-0 no-ops the engine "
                "rejects at solve time")
def check_stamp_range(ctx: LintContext):
    if ctx.circuit is None:
        return
    for fault in ctx.faults:
        view, stamps, failure = _resolve_stamps(ctx, fault)
        if failure is not None:
            yield Diagnostic(
                "fault.stamp-range", ERROR, fault.fault_id,
                _fault_location(fault),
                f"overlay stamps of {fault.fault_id!r} cannot be "
                f"resolved: {failure}",
                hint="the fault site must exist in the overlay base")
            continue
        for stamp in stamps:
            for node in (stamp.node_a, stamp.node_b):
                if canonical(node) != "0" and \
                        node not in view.node_index:
                    yield Diagnostic(
                        "fault.stamp-range", ERROR, fault.fault_id,
                        _fault_location(fault),
                        f"stamp of {fault.fault_id!r} references node "
                        f"{node!r} outside its overlay base "
                        f"(index range 0..{len(view.node_index) - 1})",
                        hint="the stamp must address compiled unknowns")
            if canonical(stamp.node_a) == canonical(stamp.node_b):
                yield Diagnostic(
                    "fault.stamp-range", ERROR, fault.fault_id,
                    _fault_location(fault),
                    f"stamp of {fault.fault_id!r} connects node "
                    f"{stamp.node_a!r} to itself (rank-0 overlay)",
                    hint="a conductance stamp needs two distinct nets")


@rule("fault.stamp-sanity", scope="faults", severity=ERROR,
      summary="overlay stamp with non-finite, negative or zero "
              "conductance",
      rationale="defect models add conductance; a negative delta can "
                "make the system indefinite or singular, a zero delta "
                "is a no-op masquerading as a fault")
def check_stamp_sanity(ctx: LintContext):
    if ctx.circuit is None:
        return
    for fault in ctx.faults:
        _, stamps, failure = _resolve_stamps(ctx, fault)
        if failure is not None:
            continue  # fault.stamp-range already reports this
        for stamp in stamps:
            g = stamp.conductance
            if not math.isfinite(g) or g < 0.0:
                yield Diagnostic(
                    "fault.stamp-sanity", ERROR, fault.fault_id,
                    _fault_location(fault),
                    f"stamp ({stamp.node_a!r}, {stamp.node_b!r}) of "
                    f"{fault.fault_id!r} has conductance {g!r} "
                    "(must be finite and >= 0)",
                    hint="impact resistances must be positive and "
                         "finite")
            elif g == 0.0:
                yield Diagnostic(
                    "fault.stamp-sanity", WARNING, fault.fault_id,
                    _fault_location(fault),
                    f"stamp ({stamp.node_a!r}, {stamp.node_b!r}) of "
                    f"{fault.fault_id!r} has zero conductance "
                    "(the fault is a no-op)",
                    hint="check the impact value")


def canonical_stamp_signature(base_key: str, stamps,
                              with_conductance: bool = True) -> tuple:
    """Hashable canonical form of an overlay stamp set.

    Node pairs are ground-canonicalized and sorted, the stamp list is
    sorted, and conductances (when included) are rounded to 12
    significant digits so ``bridge:0:x`` and ``bridge:gnd:x`` — or two
    impact values differing only in the last ulp — collapse to the same
    signature.
    """
    rows = []
    for stamp in stamps:
        a, b = sorted((canonical(stamp.node_a), canonical(stamp.node_b)))
        if with_conductance:
            g = float(stamp.conductance)
            rows.append((a, b, float(f"{g:.12g}") if math.isfinite(g)
                         else g))
        else:
            rows.append((a, b))
    return (base_key, tuple(sorted(rows)))


@rule("fault.equivalent-stamps", scope="faults", severity=WARNING,
      summary="faults with identical canonical overlay stamps",
      rationale="simulating both wastes a full generation slot; "
                "identical stamps provably produce identical verdicts, "
                "so collapse them before simulation")
def check_equivalent_stamps(ctx: LintContext):
    if ctx.circuit is None:
        return
    exact: dict[tuple, list[str]] = {}
    pattern: dict[tuple, list[str]] = {}
    conductances: dict[tuple, set[float]] = {}
    for fault in ctx.faults:
        _, stamps, failure = _resolve_stamps(ctx, fault)
        if failure is not None or not stamps:
            continue
        key = fault.overlay_base_key
        sig = canonical_stamp_signature(key, stamps)
        exact.setdefault(sig, []).append(fault.fault_id)
        pat = canonical_stamp_signature(key, stamps,
                                        with_conductance=False)
        pattern.setdefault(pat, []).append(fault.fault_id)
        conductances.setdefault(pat, set()).add(
            tuple(row[2] for row in sig[1]))
    for sig in sorted(exact, key=lambda s: sorted(exact[s])[0]):
        ids = sorted(set(exact[sig]))
        if len(ids) > 1:
            yield Diagnostic(
                "fault.equivalent-stamps", WARNING, ids[0],
                f"faults {', '.join(ids)}",
                f"faults {', '.join(ids)} stamp identical overlays "
                "(same base, same nodes, same conductance): their "
                "verdicts are provably identical",
                hint="keep one representative; see "
                     "compaction/collapse.py")
    for pat in sorted(pattern, key=lambda s: sorted(pattern[s])[0]):
        ids = sorted(set(pattern[pat]))
        if len(ids) > 1 and len(conductances[pat]) > 1:
            yield Diagnostic(
                "fault.equivalent-stamps", INFO, ids[0],
                f"faults {', '.join(ids)}",
                f"faults {', '.join(ids)} share one structural stamp "
                "pattern (conductances differ): strong collapse "
                "candidates for test compaction",
                hint="collapse_test_set can merge their tests")
