"""The :class:`Circuit` container — an immutable-by-convention netlist.

A circuit is an ordered collection of uniquely named elements plus the node
universe they imply.  Fault injection and process-variation sampling never
mutate a circuit in place: they derive new circuits through
:meth:`Circuit.with_element`, :meth:`Circuit.replace_element` and
:meth:`Circuit.without_element`.  Because elements themselves are frozen
dataclasses, derived circuits share element objects safely.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from repro.errors import NetlistError
from repro.circuit.elements import (
    Element,
    CurrentSource,
    Resistor,
    VoltageSource,
    is_ground,
)
from repro.circuit.mosfet import Mosfet

__all__ = ["Circuit"]


class Circuit:
    """An ordered, name-indexed netlist.

    Args:
        name: human-readable circuit title (used in reports).
        elements: initial elements; names must be unique
            (case-insensitive, as in SPICE).
    """

    def __init__(self, name: str = "circuit",
                 elements: Iterable[Element] = ()) -> None:
        self.name = name
        self._elements: dict[str, Element] = {}
        # nodes() per include_ground, until the next add.
        self._nodes: dict[bool, tuple[str, ...]] = {}
        for element in elements:
            self.add(element)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, element: Element) -> "Circuit":
        """Add *element*; raises :class:`NetlistError` on duplicate names.

        Returns self so calls can be chained during construction.
        """
        key = element.name.lower()
        if key in self._elements:
            raise NetlistError(f"duplicate element name: {element.name!r}")
        self._elements[key] = element
        self._nodes = {}
        return self

    def extend(self, elements: Iterable[Element]) -> "Circuit":
        """Add several elements; returns self."""
        for element in elements:
            self.add(element)
        return self

    # ------------------------------------------------------------------
    # derivation (used by fault injection / process variation)
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Circuit":
        """Shallow copy (element objects are shared; they are immutable)."""
        dup = Circuit(name or self.name)
        dup._elements = dict(self._elements)
        return dup

    def with_element(self, element: Element, name: str | None = None) -> "Circuit":
        """Return a copy with *element* added."""
        dup = self.copy(name)
        dup.add(element)
        return dup

    def with_elements(self, elements: Iterable[Element],
                      name: str | None = None) -> "Circuit":
        """Return a copy with all *elements* added."""
        dup = self.copy(name)
        dup.extend(elements)
        return dup

    def without_element(self, element_name: str,
                        name: str | None = None) -> "Circuit":
        """Return a copy with the named element removed."""
        key = element_name.lower()
        if key not in self._elements:
            raise NetlistError(f"no such element: {element_name!r}")
        dup = self.copy(name)
        del dup._elements[key]
        return dup

    def replace_element(self, element: Element,
                        name: str | None = None) -> "Circuit":
        """Return a copy where the element with the same name is replaced."""
        key = element.name.lower()
        if key not in self._elements:
            raise NetlistError(f"no such element to replace: {element.name!r}")
        dup = self.copy(name)
        dup._elements[key] = element
        return dup

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def element(self, name: str) -> Element:
        """Look up an element by (case-insensitive) name."""
        try:
            return self._elements[name.lower()]
        except KeyError:
            raise NetlistError(f"no such element: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._elements

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> tuple[Element, ...]:
        """All elements in insertion order."""
        return tuple(self._elements.values())

    def elements_of_type(self, kind: type) -> tuple[Element, ...]:
        """All elements that are instances of *kind*, in insertion order."""
        return tuple(e for e in self._elements.values() if isinstance(e, kind))

    def nodes(self, include_ground: bool = False) -> tuple[str, ...]:
        """All node names referenced by elements, in first-seen order.

        Kept per circuit until the next :meth:`add` (lint rules, the
        compiler and fault derivation all ask for the same list)."""
        cached = self._nodes.get(include_ground)
        if cached is not None:
            return cached
        seen: dict[str, None] = {}
        for element in self._elements.values():
            for node in element.nodes:
                seen.setdefault(node, None)
        if not include_ground:
            seen = {node: None for node in seen if not is_ground(node)}
        nodes = self._nodes[include_ground] = tuple(seen)
        return nodes

    def has_node(self, node: str) -> bool:
        """True if any element terminal references *node*."""
        return self.node_test()(node)

    def node_test(self) -> Callable[[str], bool]:
        """:meth:`has_node` for many queries: the terminal scan runs once,
        here, and each call of the returned test is a set lookup (ground
        aliases match each other)."""
        present = {n for e in self for n in e.nodes}
        grounded = any(map(is_ground, present))
        return lambda node: node in present or (grounded and is_ground(node))

    def elements_at(self, node: str) -> tuple[Element, ...]:
        """All elements with a terminal on *node*."""
        ground = is_ground(node)
        found = []
        for element in self._elements.values():
            for n in element.nodes:
                if (is_ground(n) and ground) or n == node:
                    found.append(element)
                    break
        return tuple(found)

    def sources(self) -> tuple[Element, ...]:
        """All independent sources (voltage and current)."""
        return tuple(e for e in self._elements.values()
                     if isinstance(e, (VoltageSource, CurrentSource)))

    # ------------------------------------------------------------------
    # serialization / display
    # ------------------------------------------------------------------
    def to_netlist(self) -> str:
        """Serialize to a SPICE-flavoured text deck (diagnostic aid).

        The output is meant for humans and tests; it round-trips through
        :func:`repro.circuit.parser.parse_netlist` for the element types
        the parser understands.
        """
        lines = [f"* {self.name}"]
        for element in self._elements.values():
            lines.append(_element_card(element))
        lines.append(".end")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (f"Circuit({self.name!r}, elements={len(self._elements)}, "
                f"nodes={len(self.nodes())})")

    def summary(self) -> str:
        """One-paragraph structural summary used in example scripts."""
        kinds: dict[str, int] = {}
        for element in self._elements.values():
            kinds[type(element).__name__] = kinds.get(type(element).__name__, 0) + 1
        parts = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
        return (f"{self.name}: {len(self._elements)} elements ({parts}), "
                f"{len(self.nodes())} non-ground nodes")


def _element_card(element: Element) -> str:
    """Render one element as a netlist card."""
    from repro.circuit.elements import (Capacitor, Inductor, VCCS, VCVS)
    from repro.circuit.diode import Diode

    if isinstance(element, Resistor):
        return f"R{element.name} {element.n1} {element.n2} {element.resistance:g}"
    if isinstance(element, Capacitor):
        return f"C{element.name} {element.n1} {element.n2} {element.capacitance:g}"
    if isinstance(element, Inductor):
        return f"L{element.name} {element.n1} {element.n2} {element.inductance:g}"
    if isinstance(element, VoltageSource):
        return f"V{element.name} {element.n1} {element.n2} {_wave_card(element.waveform)}"
    if isinstance(element, CurrentSource):
        return f"I{element.name} {element.n1} {element.n2} {_wave_card(element.waveform)}"
    if isinstance(element, VCVS):
        return (f"E{element.name} {element.np} {element.nn} "
                f"{element.cp} {element.cn} {element.gain:g}")
    if isinstance(element, VCCS):
        return (f"G{element.name} {element.np} {element.nn} "
                f"{element.cp} {element.cn} {element.gm:g}")
    if isinstance(element, Diode):
        return (f"D{element.name} {element.anode} {element.cathode} "
                f"IS={element.i_s:g} N={element.n:g}")
    if isinstance(element, Mosfet):
        p = element.params
        return (f"M{element.name} {element.d} {element.g} {element.s} {element.b} "
                f"{p.kind} W={element.w:g} L={element.l:g} M={element.m:g}")
    return f"* (unserializable element {element.name})"


def _wave_card(waveform: object) -> str:
    if isinstance(waveform, (int, float)):
        return f"DC {float(waveform):g}"
    return str(waveform)
