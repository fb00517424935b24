"""Batch-composition independence of the family screens.

Coalescing, the verdict cache and sharding key a fault's verdict on the
fault alone, so they assume it does not depend on which other columns
share its batch.  For the lockstep step transients and for the rank
groups of the Monte Carlo column solver this holds bit for bit, and
these tests pin it (``int64`` views, the sign of a zero counts):

* a step-transient fault's waveform and ``S_f`` are the same alone, in
  its family, in a permuted family and next to a duplicate of itself
  (canonical screens, the serving layer's mode);
* a Monte Carlo column's solution is the same whatever the stamp ranks
  of the columns around it, so its margins are too.  The batch width,
  the column's position and the stage every column leaves at stay
  fixed (all certify in the chord stage): the solver's dense residual
  products and triangular solves take all columns of a stage at once,
  and the BLAS kernel of a product can depend on how many there are.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.batched import MonteCarloOverlaySolver, _StampStack
from repro.analysis.engine import SimulationEngine
from repro.analysis.mna import CompiledCircuit
from repro.analysis.newton import robust_solve
from repro.circuit.elements import Resistor
from repro.macros import get_macro
from repro.testgen import TestExecutor as Executor


def _as_bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.fixture(scope="module", params=[2, 5])
def step_family(request):
    macro = get_macro("rc-ladder", n_sections=request.param)
    configuration = {c.name: c for c in macro.test_configurations()}[
        "step-mean"]
    return macro, configuration, list(macro.fault_dictionary())


class TestStepFamilyComposition:
    VECTOR = [0.7, 1.5]

    def _screen(self, step_family, batch):
        """Canonical reports and raw waveforms of *batch*, each from a
        fresh executor (the serving layer's cold-executor contract)."""
        macro, configuration, _ = step_family
        executor = Executor(macro.circuit, configuration, macro.options)
        reports = executor.screen_faults(batch, self.VECTOR, canonical=True)
        engine = SimulationEngine(macro.circuit, macro.options)
        raws = engine.simulate_faults(
            configuration.procedure,
            configuration.parameters.to_dict(self.VECTOR), batch,
            canonical=True)
        return list(zip(reports, raws))

    def _assert_same(self, got, expected):
        (report, raw), (ref_report, ref_raw) = got, expected
        assert np.array_equal(_as_bits(raw), _as_bits(ref_raw))
        assert np.array_equal(_as_bits(report.value),
                              _as_bits(ref_report.value))
        assert np.array_equal(_as_bits(report.deviations),
                              _as_bits(ref_report.deviations))

    def test_alone_family_permuted_and_duplicated(self, step_family):
        faults = step_family[2]
        family = self._screen(step_family, faults)
        order = np.random.default_rng(len(faults)).permutation(len(faults))
        permuted = self._screen(step_family, [faults[i] for i in order])
        for position, i in enumerate(order):
            self._assert_same(permuted[position], family[i])
        for i, fault in enumerate(faults):
            self._assert_same(self._screen(step_family, [fault])[0],
                              family[i])
            doubled = self._screen(step_family,
                                   [faults[-1 - i], fault, fault])
            self._assert_same(doubled[1], family[i])
            self._assert_same(doubled[2], family[i])

    def test_family_matches_per_fault_screen(self, step_family):
        """The same reports as the per-fault path of a fresh engine."""
        macro, configuration, faults = step_family

        class PerFault(SimulationEngine):
            def columns_supported(self, procedure) -> bool:
                return False

        reference = Executor(macro.circuit, configuration, macro.options,
                             engine=PerFault(macro.circuit, macro.options))
        expected = reference.screen_faults(faults, self.VECTOR,
                                           canonical=True)
        for (report, _), ref in zip(self._screen(step_family, faults),
                                    expected):
            assert np.array_equal(_as_bits(report.value),
                                  _as_bits(ref.value))


@pytest.fixture(scope="module")
def mc_solver():
    """A Monte Carlo column solver on a 5-section ladder at 2 V DC."""
    macro = get_macro("rc-ladder", n_sections=5)
    configuration = {c.name: c for c in macro.test_configurations()}[
        "dc-out"]
    compiled = CompiledCircuit(macro.circuit)
    with configuration.procedure.screening_patch(compiled, {"level": 2.0}):
        b = compiled.source_vector(None)
        x_op, _, _ = robust_solve(compiled, np.zeros(compiled.size), b,
                                  macro.options)
        solver = MonteCarloOverlaySolver(compiled, x_op, b, macro.options)
    return macro, solver


def _resistor_deltas(circuit, rng):
    """One process sample's resistor stamps (rank = resistor count)."""
    return [(e.n1, e.n2, float(1.0 / (e.resistance * (1 + 0.03 * z))
                               - 1.0 / e.resistance))
            for e, z in zip(circuit.elements_of_type(Resistor),
                            rng.standard_normal(64))]


class TestMonteCarloRankIndependence:
    WIDTH = 7
    POSITION = 3

    def _neighbours(self, macro, rng, rank_kind):
        circuit = macro.circuit
        if rank_kind == "empty":
            return []
        if rank_kind == "bridge":
            return [("n1", "0", float(10.0 ** rng.uniform(-7, -5)))]
        samples = _resistor_deltas(circuit, rng)
        if rank_kind == "sample":
            return samples
        if rank_kind == "short-sample":
            return samples[:3]
        return samples + [("vin", "n3", float(10.0 ** rng.uniform(-7, -5))),
                          ("n2", "0", 1e-6)]

    def test_column_is_the_same_whatever_its_neighbours_ranks(
            self, mc_solver):
        macro, solver = mc_solver
        rng = np.random.default_rng(5)
        target = _resistor_deltas(macro.circuit, rng) + [("n1", "vout",
                                                          2e-6)]
        solutions = []
        kinds = ("empty", "bridge", "sample", "short-sample", "wide")
        for layout in ([kinds[i % 5] for i in range(self.WIDTH)],
                       ["bridge"] * self.WIDTH, ["sample"] * self.WIDTH,
                       ["wide"] * self.WIDTH, ["empty"] * self.WIDTH,
                       [kinds[(3 * i + 1) % 5] for i in range(self.WIDTH)]):
            sets = [self._neighbours(macro, rng, kind) for kind in layout]
            sets[self.POSITION] = target
            screened = solver.screen_columns(sets)
            assert {c.status for c in screened} == {"screened"}
            solutions.append(screened[self.POSITION])
        for column in solutions[1:]:
            assert column.status == solutions[0].status
            assert column.iterations == solutions[0].iterations
            assert np.array_equal(_as_bits(column.x),
                                  _as_bits(solutions[0].x))

    @pytest.mark.parametrize("rank", [2, 5, 7])
    def test_woodbury_correction_is_the_same_in_uniform_and_mixed_stacks(
            self, mc_solver, rank):
        """The stamp stack itself: the SMW corrections of columns of
        equal rank keep their bits when one neighbour's rank changes
        and the stack stops being uniform (one rank-grouped path serves
        both layouts; an ``einsum`` path for uniform stacks did not)."""
        _, solver = mc_solver
        compiled = solver.compiled
        rng = np.random.default_rng(rank)
        nodes = list(compiled.node_names) + ["0"]

        def stamps(k):
            pairs = [rng.choice(len(nodes), size=2, replace=False)
                     for _ in range(k)]
            return [(nodes[a], nodes[b], float(10.0 ** rng.uniform(-6, -2)))
                    for a, b in pairs]

        sets = [stamps(rank) for _ in range(24)]
        y = rng.standard_normal((compiled.size, len(sets)))
        uniform = _StampStack(compiled, sets, solver.factorization)
        mixed = _StampStack(compiled, [sets[0][:1]] + sets[1:],
                            solver.factorization)
        assert np.array_equal(
            _as_bits(uniform.apply_inverse(y)[:, 1:]),
            _as_bits(mixed.apply_inverse(y)[:, 1:]))
