"""Circuit-scope lint rules.

The first five rules reproduce the historical ``validate_circuit``
checks with byte-identical messages — that function is now a thin
wrapper collecting their diagnostics (see
:data:`LEGACY_VALIDATE_RULES`).  The remaining rules are new purely
structural predicates: they reject or flag topologies that would
otherwise surface mid-run as singular-matrix or convergence failures.
"""

from __future__ import annotations

from repro.circuit.diode import Diode
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    TwoTerminal,
    VCCS,
    VCVS,
    VoltageSource,
    is_ground,
)
from repro.circuit.mosfet import Mosfet
from repro.lint.core import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    LintContext,
    rule,
)
from repro.lint.structure import (
    UnionFind,
    build_pattern,
    canonical,
    dc_components,
    dc_conducting_pairs,
    structural_rank,
    voltage_source_loops,
)
from repro.units import format_value

__all__ = ["LEGACY_VALIDATE_RULES"]

#: Rule ids whose diagnostics the back-compat ``validate_circuit``
#: wrapper re-emits (errors raise NetlistError, warnings become the
#: returned string list).  Order here is the legacy emission order.
LEGACY_VALIDATE_RULES = (
    "circuit.empty",
    "circuit.no-ground",
    "circuit.dangling-node",
    "circuit.dc-path",
    "circuit.isource-dc-path",
)


def _ready(ctx: LintContext) -> bool:
    """Circuit present, non-empty and grounded (gate for deeper rules)."""
    circuit = ctx.circuit
    return (circuit is not None and len(circuit) > 0
            and any(is_ground(n) for e in circuit for n in e.nodes))


def _location(ctx: LintContext) -> str:
    return f"circuit {ctx.circuit.name!r}" if ctx.circuit else "circuit"


def _dc_components(ctx: LintContext) -> UnionFind:
    """The circuit's DC union-find, built once per lint run and shared
    by every rule that asks (a lookup only compresses paths)."""
    uf = ctx.cache.get("dc_components")
    if uf is None:
        uf = ctx.cache["dc_components"] = dc_components(ctx.circuit)
    return uf


@rule("circuit.empty", scope="circuit", severity=ERROR,
      summary="circuit has no elements",
      rationale="an empty netlist has nothing to compile or test")
def check_empty(ctx: LintContext):
    if ctx.circuit is not None and len(ctx.circuit) == 0:
        yield Diagnostic(
            "circuit.empty", ERROR, ctx.circuit.name, _location(ctx),
            f"circuit {ctx.circuit.name!r} has no elements",
            hint="add elements before analysing")


@rule("circuit.no-ground", scope="circuit", severity=ERROR,
      summary="no ground reference node",
      rationale="MNA needs a reference; without one every node floats")
def check_no_ground(ctx: LintContext):
    circuit = ctx.circuit
    if circuit is None or len(circuit) == 0:
        return
    if not any(is_ground(n) for e in circuit for n in e.nodes):
        yield Diagnostic(
            "circuit.no-ground", ERROR, circuit.name, _location(ctx),
            f"circuit {circuit.name!r} has no ground reference "
            "('0' or 'gnd')",
            hint="tie one net to node '0'")


@rule("circuit.dangling-node", scope="circuit", severity=WARNING,
      summary="node with a single element terminal",
      rationale="a one-terminal net usually indicates a typo in a "
                "node name")
def check_dangling(ctx: LintContext):
    if not _ready(ctx):
        return
    terminal_count: dict[str, int] = {}
    for element in ctx.circuit:
        for node in element.nodes:
            node = canonical(node)
            terminal_count[node] = terminal_count.get(node, 0) + 1
    for node, count in sorted(terminal_count.items()):
        if node != "0" and count < 2:
            yield Diagnostic(
                "circuit.dangling-node", WARNING, node, _location(ctx),
                f"node {node!r} has a single terminal (dangling)",
                hint="check the node name for typos")


@rule("circuit.dc-path", scope="circuit", severity=WARNING,
      summary="node without a DC path to ground",
      rationale="its bias is set only by the engine's gmin leakage, so "
                "operating points are gmin-dependent")
def check_dc_path(ctx: LintContext):
    if not _ready(ctx):
        return
    uf = _dc_components(ctx)
    ground_root = uf.find("0")
    for node in ctx.circuit.nodes():
        if uf.find(canonical(node)) != ground_root:
            yield Diagnostic(
                "circuit.dc-path", WARNING, node, _location(ctx),
                f"node {node!r} has no DC path to ground "
                "(only capacitors/gates attach; gmin will be relied on)",
                hint="add a bias resistor or DC-conducting element")


@rule("circuit.isource-dc-path", scope="circuit", severity=WARNING,
      summary="current source into a node with no DC-conducting element",
      rationale="all injected current must leave through gmin, driving "
                "the node to an extreme voltage")
def check_isource_dc_path(ctx: LintContext):
    if not _ready(ctx):
        return
    circuit = ctx.circuit
    dc_nodes = {canonical(node) for pair in dc_conducting_pairs(circuit)
                for node in pair}
    for source in circuit.elements_of_type(CurrentSource):
        for node in source.nodes:
            node = canonical(node)
            if node != "0" and node not in dc_nodes:
                attached = [e.name for e in circuit.elements_at(node)
                            if not isinstance(e, (CurrentSource,
                                                  Capacitor))]
                if not attached:
                    yield Diagnostic(
                        "circuit.isource-dc-path", WARNING,
                        f"{source.name}:{node}", _location(ctx),
                        f"current source {source.name!r} drives node "
                        f"{node!r} which has no DC-conducting element",
                        hint="give the node a resistive return path")


@rule("circuit.duplicate-name", scope="circuit", severity=ERROR,
      summary="duplicate element names in the input sequence",
      rationale="later stamps silently shadow earlier ones in most "
                "SPICE-like flows; the Circuit class rejects them, raw "
                "element lists cannot")
def check_duplicate_name(ctx: LintContext):
    seen: dict[str, int] = {}
    for element in ctx.elements:
        key = element.name.lower()
        seen[key] = seen.get(key, 0) + 1
    for name in sorted(name for name, count in seen.items() if count > 1):
        yield Diagnostic(
            "circuit.duplicate-name", ERROR, name, _location(ctx),
            f"element name {name!r} appears {seen[name]} times "
            "(names are case-insensitive)",
            hint="rename the duplicates")


@rule("circuit.self-loop", scope="circuit", severity=WARNING,
      summary="element with both terminals on the same net",
      rationale="its stamps cancel exactly, so the element contributes "
                "nothing — almost always a netlist mistake")
def check_self_loop(ctx: LintContext):
    if ctx.circuit is None:
        return
    for element in ctx.circuit:
        pairs = ()
        if isinstance(element, TwoTerminal):
            pairs = ((element.n1, element.n2),)
        elif isinstance(element, Diode):
            pairs = ((element.anode, element.cathode),)
        elif isinstance(element, (VCVS, VCCS)):
            pairs = ((element.np, element.nn),)
        for a, b in pairs:
            if canonical(a) == canonical(b):
                yield Diagnostic(
                    "circuit.self-loop", WARNING, element.name,
                    _location(ctx),
                    f"element {element.name!r} connects node {a!r} to "
                    f"itself (stamps cancel; the element is a no-op)",
                    hint="check the terminal node names")


@rule("circuit.control-loop", scope="circuit", severity=WARNING,
      summary="controlled source with a degenerate control pair",
      rationale="a control voltage measured across one net is "
                "identically zero, so the source never acts")
def check_control_loop(ctx: LintContext):
    if ctx.circuit is None:
        return
    for element in ctx.circuit:
        if isinstance(element, (VCVS, VCCS)):
            if canonical(element.cp) == canonical(element.cn):
                yield Diagnostic(
                    "circuit.control-loop", WARNING, element.name,
                    _location(ctx),
                    f"controlled source {element.name!r} senses "
                    f"V({element.cp},{element.cn}) which is "
                    "identically zero",
                    hint="check the control node names")


@rule("circuit.value-sanity", scope="circuit", severity=WARNING,
      summary="element value outside plausible physical decades",
      rationale="values like a 1e15-ohm resistor or a 1-farad on-chip "
                "capacitor are usually unit mistakes (k vs meg, pF vs F)")
def check_value_sanity(ctx: LintContext):
    if ctx.circuit is None:
        return
    # (low, high) plausibility decades per element family.  Deliberately
    # generous: bridging-fault injection uses few-ohm resistors and
    # supply rails sit at tens of volts.
    for element in ctx.circuit:
        findings: list[tuple[str, str]] = []
        if isinstance(element, Resistor):
            if not 1e-3 <= element.resistance <= 1e12:
                findings.append((format_value(element.resistance, "ohm"),
                                 "expected 1 mohm .. 1 Tohm"))
        elif isinstance(element, Capacitor):
            if not 1e-18 <= element.capacitance <= 1e-2:
                findings.append((format_value(element.capacitance, "F"),
                                 "expected 1 aF .. 10 mF"))
        elif isinstance(element, Inductor):
            if not 1e-12 <= element.inductance <= 1e3:
                findings.append((format_value(element.inductance, "H"),
                                 "expected 1 pH .. 1 kH"))
        elif isinstance(element, VoltageSource):
            if abs(element.dc_value) > 1e3:
                findings.append((format_value(element.dc_value, "V"),
                                 "expected |V| <= 1 kV"))
        elif isinstance(element, CurrentSource):
            if abs(element.dc_value) > 10.0:
                findings.append((format_value(element.dc_value, "A"),
                                 "expected |I| <= 10 A"))
        elif isinstance(element, VCVS):
            if element.gain == 0.0:
                findings.append(("gain=0",
                                 "a zero-gain VCVS is a plain short"))
            elif abs(element.gain) > 1e9:
                findings.append((f"gain={element.gain:g}",
                                 "expected |gain| <= 1e9"))
        elif isinstance(element, VCCS):
            if element.gm == 0.0:
                findings.append(("gm=0", "a zero-gm VCCS is a no-op"))
            elif abs(element.gm) > 1e3:
                findings.append((f"gm={element.gm:g} S",
                                 "expected |gm| <= 1 kS"))
        for value, expectation in findings:
            yield Diagnostic(
                "circuit.value-sanity", WARNING, element.name,
                _location(ctx),
                f"element {element.name!r} has implausible value "
                f"{value} ({expectation})",
                hint="check the SPICE unit suffix")


@rule("circuit.floating-gate", scope="circuit", severity=WARNING,
      summary="MOSFET gate driven only by a floating net",
      rationale="the gate bias is then set by gmin alone, so the device "
                "operating region is an accident of solver defaults")
def check_floating_gate(ctx: LintContext):
    if not _ready(ctx):
        return
    circuit = ctx.circuit
    uf = _dc_components(ctx)
    ground_root = uf.find("0")
    floating: dict[str, list[str]] = {}
    for device in circuit.elements_of_type(Mosfet):
        gate = canonical(device.g)
        if gate != "0" and uf.find(gate) != ground_root:
            floating.setdefault(gate, []).append(device.name)
    for gate in sorted(floating):
        devices = ", ".join(sorted(floating[gate]))
        yield Diagnostic(
            "circuit.floating-gate", WARNING, gate, _location(ctx),
            f"node {gate!r} floats at DC and drives the gate(s) of "
            f"{devices}",
            hint="bias the gate resistively or from a source")


@rule("circuit.isource-cutset", scope="circuit", severity=WARNING,
      summary="current source bridging disconnected DC components",
      rationale="its current has no conductive return path, so KCL can "
                "only balance through gmin leakage")
def check_isource_cutset(ctx: LintContext):
    if not _ready(ctx):
        return
    circuit = ctx.circuit
    uf = _dc_components(ctx)
    for source in circuit.elements_of_type(CurrentSource):
        a, b = canonical(source.n1), canonical(source.n2)
        if uf.find(a) != uf.find(b):
            yield Diagnostic(
                "circuit.isource-cutset", WARNING, source.name,
                _location(ctx),
                f"current source {source.name!r} is a cutset between "
                f"{source.n1!r} and {source.n2!r}: no DC return path "
                "connects its terminals",
                hint="add a conductive path between the two sides")


@rule("circuit.vsource-loop", scope="circuit", severity=ERROR,
      summary="loop of ideal voltage-defined branches",
      rationale="the branch currents in such a loop are mathematically "
                "undetermined: the MNA matrix is numerically singular "
                "at every operating point")
def check_vsource_loop(ctx: LintContext):
    if not _ready(ctx):
        return
    for name, a, b in voltage_source_loops(ctx.circuit):
        yield Diagnostic(
            "circuit.vsource-loop", ERROR, name, _location(ctx),
            f"element {name!r} closes a loop of ideal voltage-defined "
            f"branches between {a!r} and {b!r} (V sources, inductors "
            "and VCVS outputs short at DC)",
            hint="break the loop with a series resistance")


@rule("circuit.structural-rank", scope="circuit", severity=ERROR,
      summary="MNA system structurally singular",
      rationale="no choice of element values can make the Jacobian "
                "invertible — factorization is guaranteed to fail, "
                "so reject before compiling")
def check_structural_rank(ctx: LintContext):
    if not _ready(ctx):
        return
    pattern = build_pattern(ctx.circuit)
    if pattern.size == 0:
        return
    # Computed WITH the gmin diagonals the engine adds to node rows:
    # deficiencies that remain (e.g. the all-zero branch row of a
    # voltage source strapped between two ground aliases) are the ones
    # gmin cannot repair.
    rank, unmatched = structural_rank(pattern, with_gmin=True)
    if rank < pattern.size:
        shown = ", ".join(unmatched[:6])
        if len(unmatched) > 6:
            shown += f", ... ({len(unmatched)} total)"
        yield Diagnostic(
            "circuit.structural-rank", ERROR,
            unmatched[0] if unmatched else ctx.circuit.name,
            _location(ctx),
            f"MNA system is structurally singular even with gmin: "
            f"structural rank {rank} < size {pattern.size} "
            f"(undetermined unknowns: {shown})",
            hint="every unknown needs an equation that can pivot on it; "
                 "look for branch elements strapped across ground "
                 "aliases or fully degenerate subcircuits")
