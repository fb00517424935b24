"""Macro abstraction: a reusable analog block plus its test knowledge.

A *macro* in the paper's sense is a reusable analog building block of a
mixed-signal IC (an IV-converter, an opamp, a filter) that ships with
standardized node names and a set of test-configuration descriptions
shared by its macro type.  This class bundles everything the ATPG flow
needs about one macro:

* the netlist (:meth:`Macro.build_circuit`),
* the standard node list (defines the bridging-fault universe),
* the exhaustive fault dictionary,
* the test-configuration implementations (bounds, seeds, procedures,
  box functions),
* the process-variation and tester-accuracy models.

The configurations of a built-in macro are assembled here, once, from
three per-macro hooks (:meth:`Macro.configuration_descriptions`,
``_bound_parameters`` and ``_procedure``).  Their box functions come in
two modes, also implemented here:

* ``"fast"`` — the conservative constant half-widths of
  :attr:`Macro.FAST_BOXES`; instant, used by unit tests and interactive
  exploration;
* ``"calibrated"`` — Monte-Carlo calibration against the macro's process
  variation (:func:`~repro.tolerance.calibrate.calibrate_box_function`,
  :attr:`Macro.CALIBRATION_SAMPLES` variants per grid point), used by the
  experiment benches.  The on-disk cache is keyed by content: the
  netlist, the procedure's full state, the process variation and the
  simulator options.

A custom macro may instead override :meth:`Macro.test_configurations`
outright.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path

import numpy as np

from repro.analysis import DEFAULT_OPTIONS, SimOptions
from repro.circuit.netlist import Circuit
from repro.errors import TestGenerationError
from repro.faults.dictionary import (
    FaultDictionary,
    exhaustive_fault_dictionary,
)
from repro.hashing import attribute_signature, content_digest, netlist_digest
from repro.testgen.configuration import (
    TestConfiguration,
    TestConfigurationDescription,
)
from repro.testgen.execution import MacroTestbench
from repro.testgen.parameters import BoundParameter
from repro.testgen.procedures import MeasurementProcedure
from repro.tolerance.box import BoxFunction, ConstantBoxFunction
from repro.tolerance.calibrate import calibrate_box_function
from repro.tolerance.equipment import DEFAULT_EQUIPMENT, EquipmentSpec
from repro.tolerance.process import DEFAULT_PROCESS, ProcessVariation

__all__ = ["Macro"]


class Macro(ABC):
    """Base class for analog macros under test."""

    #: Macro instance name (used in reports and cache tags).
    name: str = "macro"

    #: Macro type; test-configuration descriptions are shared per type.
    macro_type: str = "generic"

    #: Constant box half-widths per configuration name (``"fast"`` mode).
    FAST_BOXES: dict[str, tuple[float, ...]]

    #: Monte-Carlo process variants per calibration grid point.
    CALIBRATION_SAMPLES: int = 10

    def __init__(self,
                 process_variation: ProcessVariation = DEFAULT_PROCESS,
                 equipment: EquipmentSpec = DEFAULT_EQUIPMENT,
                 options: SimOptions = DEFAULT_OPTIONS) -> None:
        self.process_variation = process_variation
        self.equipment = equipment
        self.options = options
        self._circuit: Circuit | None = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @abstractmethod
    def build_circuit(self) -> Circuit:
        """Construct the fault-free netlist (uncached)."""

    @property
    def circuit(self) -> Circuit:
        """The fault-free netlist (cached)."""
        if self._circuit is None:
            self._circuit = self.build_circuit()
        return self._circuit

    @property
    @abstractmethod
    def standard_nodes(self) -> tuple[str, ...]:
        """Standardized node names; the bridging-fault universe."""

    # ------------------------------------------------------------------
    # fault universe
    # ------------------------------------------------------------------
    def fault_dictionary(self) -> FaultDictionary:
        """Exhaustive dictionary: all node-pair bridges + all pinholes."""
        return exhaustive_fault_dictionary(self.circuit,
                                           nodes=self.standard_nodes)

    # ------------------------------------------------------------------
    # test knowledge
    # ------------------------------------------------------------------
    def configuration_descriptions(
            self) -> tuple[TestConfigurationDescription, ...]:
        """The macro type's test-configuration templates."""
        raise NotImplementedError

    def _bound_parameters(self, name: str) -> tuple[BoundParameter, ...]:
        """Bounds and seed of every parameter of configuration *name*."""
        raise NotImplementedError

    def _procedure(self, name: str) -> MeasurementProcedure:
        """The measurement procedure of configuration *name*."""
        raise NotImplementedError

    def test_configurations(
        self, box_mode: str = "fast",
        cache_dir: Path | str | None = None,
    ) -> tuple[TestConfiguration, ...]:
        """The macro's candidate test-configuration implementations.

        Args:
            box_mode: ``"fast"`` (shipped constant boxes) or
                ``"calibrated"`` (Monte-Carlo, cached under *cache_dir*).
            cache_dir: calibration cache directory.
        """
        configs = []
        for description in self.configuration_descriptions():
            name = description.name
            parameters = self._bound_parameters(name)
            procedure = self._procedure(name)
            configs.append(TestConfiguration(
                description=description, parameters=parameters,
                procedure=procedure,
                box_function=self._box_function(
                    name, parameters, procedure, box_mode, cache_dir),
                equipment=self.equipment))
        return tuple(configs)

    def _box_function(self, name: str,
                      parameters: tuple[BoundParameter, ...],
                      procedure: MeasurementProcedure, box_mode: str,
                      cache_dir: Path | str | None) -> BoxFunction:
        if box_mode == "fast":
            return ConstantBoxFunction(self.FAST_BOXES[name])
        if box_mode != "calibrated":
            raise TestGenerationError(
                f"box_mode must be 'fast' or 'calibrated', got {box_mode!r}")
        bounds = np.array([[p.lower, p.upper] for p in parameters])
        names = [p.name for p in parameters]
        nominal_cache: dict[tuple[float, ...], np.ndarray] = {}

        def evaluate(circuit, point):
            point = np.atleast_1d(np.asarray(point, float))
            params = dict(zip(names, point))
            key = tuple(point.tolist())
            nominal_raw = nominal_cache.get(key)
            if nominal_raw is None:
                nominal_raw = procedure.simulate(self.circuit, params,
                                                 self.options)
                nominal_cache[key] = nominal_raw
            raw = procedure.simulate(circuit, params, self.options)
            return procedure.deviations(nominal_raw, raw)

        # Everything the calibrated values depend on besides what the
        # calibrator keys itself (bounds, grid, samples, seed).
        digest = content_digest((
            netlist_digest(self.circuit.to_netlist()),
            attribute_signature(procedure),
            repr(self.process_variation),
            repr(self.options)))
        return calibrate_box_function(
            evaluate, self.circuit, self.process_variation, bounds,
            tag=f"{self.name}/{name}@{digest}", points_per_axis=3,
            n_samples=self.CALIBRATION_SAMPLES, cache_dir=cache_dir)

    def testbench(self, box_mode: str = "fast",
                  cache_dir: Path | str | None = None) -> MacroTestbench:
        """Convenience: circuit + configurations wired into a testbench."""
        return MacroTestbench(
            self.circuit, self.test_configurations(box_mode, cache_dir),
            self.options)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
