"""Fault injection helper with post-injection validation."""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.circuit.validate import validate_circuit
from repro.errors import NetlistError, FaultModelError
from repro.faults.base import FaultModel

__all__ = ["inject_fault"]


def inject_fault(circuit: Circuit, fault: FaultModel,
                 validate: bool = False) -> Circuit:
    """Return a copy of *circuit* with *fault* injected.

    Thin wrapper over :meth:`FaultModel.apply` that optionally re-validates
    the faulty netlist.  The ATPG loop never calls it: faults are stamped
    onto compiled overlay bases instead (see
    :class:`repro.analysis.engine.SimulationEngine`).  Validation is off
    by default because the models only add well-formed elements; turning
    it on is useful when developing new fault types.

    Raises:
        FaultModelError: from the model itself, or wrapping a structural
            validation failure of the faulty circuit.
    """
    faulty = fault.apply(circuit)
    if validate:
        try:
            validate_circuit(faulty)
        except NetlistError as exc:
            raise FaultModelError(
                f"injecting {fault.fault_id} produced an invalid circuit: "
                f"{exc}") from exc
    return faulty
