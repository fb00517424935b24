"""``campaign``: cold, breadth-first cells and Monte Carlo screens.

Most ops are campaign cells run in-process by
:func:`repro.scenarios.campaign.run_cell`: build the variant, derive its
IFA dictionary, apply the process corner, lint-vet, then screen every
configuration through ``screen_dictionary_sharded`` with its fresh
executor per shard.  Nothing is shared between ops, so this is the
workload where compile, factorize, sharding and scalar transient cost
show at full weight, and where the serving caches do no work.  The
rest of the pass is 51 Monte Carlo tolerance screens
(:mod:`perfbench.wl_montecarlo`), the only ops where the Monte Carlo
column solver works; they are cold calls too, and share the run so that
both kinds get a long run on a two-core host.

Every op is independent, so a timed run schedules them by the host
probe (``run.measure_independent``).  The 102 cells are each short
enough to be timed many times in one run: small active filters (2-12
sections) at every corner and dictionary, every RC-ladder size once per
dictionary (corners spread over them; their scalar step transients are
about half the cells' time) and two 64-section filters above the
sparse-backend threshold; the seed orders all 153 ops.  The two-stage
op-amp and folded-cascode OTA cells are left out: even their
``ifa-lean`` cells take 0.7-1 s, a third of a replay, and would need
more replays than a run holds for a steady fastest time.
"""

from __future__ import annotations

from repro.scenarios import campaign
from repro.scenarios.spec import parse_spec

from perfbench.wl_montecarlo import MonteCarloWorkload
from perfbench.workload import Op, Verdict, Workload, load_reference

CORNERS = ("tt", "ss", "ff", "sf", "fs", "rhi", "rlo")
DICTIONARIES = (
    {"label": "ifa", "kind": "ifa"},
    {"label": "ifa-lean", "kind": "ifa", "top_n": 10},
)
RC_SECTIONS = (2, 3, 4, 5, 6, 7)
#: Small active filters (7-35 ms a cell on a 2-core host): every corner
#: and dictionary of each size, with both fault_top_n values.
AF_SECTIONS = (2, 4, 8)
AF_TOP_N = (6, 12)
#: A 12-section filter at these corners, with every dictionary, rounds
#: the pass up to 102 cells.
AF_MID = 12
AF_MID_CORNERS = ("tt", "ss")
#: 64 sections (130 unknowns) runs above the 100-unknown sparse-backend
#: threshold; these (corner, dictionary) cells are in the pass.
AF_LARGE = 64
AF_LARGE_CELLS = (("tt", "ifa"), ("ss", "ifa-lean"))


def _cells(topology: dict, corners, dictionaries) -> list:
    return parse_spec({
        "corners": list(corners),
        "campaign": {"name": "perfbench", "mode": "screen"},
        "topologies": [topology],
        "dictionaries": list(dictionaries),
    }).cells()


def _filter(n: int, top_n: int = 12) -> dict:
    return {"family": "active-filter",
            "axes": {"n_sections": [n], "fault_top_n": [top_n]}}


def universe() -> list:
    """The pass's cells, in a fixed order (about 2.5 s of work).

    The fourteen long cells (RC ladders at 80-150 ms, the 64-section
    filters at about 120 ms) are more than a tenth of the pass, so p90
    falls inside their class and p50 inside the small filters.
    """
    cells = []
    for n in AF_SECTIONS:
        for top_n in AF_TOP_N:
            cells += _cells(_filter(n, top_n), CORNERS, DICTIONARIES)
    cells += _cells(_filter(AF_MID), AF_MID_CORNERS, DICTIONARIES)
    for i, (n, dictionary) in enumerate(
            (n, d) for n in RC_SECTIONS for d in DICTIONARIES):
        cells += _cells({"family": "rc-ladder", "axes": {"n_sections": [n]}},
                        [CORNERS[i % len(CORNERS)]], [dictionary])
    by_label = {d["label"]: d for d in DICTIONARIES}
    for corner, label in AF_LARGE_CELLS:
        cells += _cells(_filter(AF_LARGE), [corner], [by_label[label]])
    return cells


class CampaignWorkload(Workload):
    name = "campaign"
    independent_ops = True
    trace_replays = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.montecarlo = MonteCarloWorkload(seed)
        self._mc_reference = None

    def parameters(self) -> dict:
        return {"corners": list(CORNERS),
                "dictionaries": [d["label"] for d in DICTIONARIES],
                "rc_sections": list(RC_SECTIONS),
                "active_filter_sections": list(AF_SECTIONS),
                "active_filter_top_n": list(AF_TOP_N),
                "active_filter_mid": [AF_MID, list(AF_MID_CORNERS)],
                "active_filter_large": [AF_LARGE,
                                        [list(c) for c in AF_LARGE_CELLS]],
                "callers": 1, "mode": "screen",
                "montecarlo": self.montecarlo.parameters()}

    def setup(self):
        return {"cells": universe(), "mc": self.montecarlo.setup()}

    def pass_ops(self, state):
        ops = [Op("cell", (cell.scenario_id,), {"cell": cell})
               for cell in state["cells"]] + list(state["mc"]["ops"])
        return [ops[i] for i in self.rng().permutation(len(ops))]

    def execute(self, state, op: Op):
        if op.kind == "screen":
            return self.montecarlo.execute(state["mc"], op)
        return campaign.run_cell(op.args["cell"])

    def check(self, result, reference: dict) -> Verdict:
        if result.op.kind == "screen":
            if self._mc_reference is None:
                self._mc_reference = load_reference(self.montecarlo.name)
            return self.montecarlo.check(result, self._mc_reference)
        record = result.output
        expected = reference.get(result.op.key[0])
        if expected is None:
            return Verdict(False, "cell missing from the reference")
        if record.status != expected["status"]:
            return Verdict(False, f"status {record.status} != "
                                  f"{expected['status']}")
        got = {c["name"]: c["n_detected"] for c in record.configurations}
        if got != expected["configurations"]:
            return Verdict(False, f"n_detected {got} != "
                                  f"{expected['configurations']}")
        drift = float(record.verdict_digest != expected["verdict_digest"])
        return Verdict(True, drift=drift)

    def counters(self, state, tracer, results) -> dict:
        return {"lint.rejected": sum(
            1 for r in results if r.op.kind == "cell"
            and r.output is not None and r.output.status == "rejected")}


def reference_record(record) -> dict:
    """Reference entry of one cell record."""
    return {"status": record.status,
            "configurations": {c["name"]: c["n_detected"]
                               for c in record.configurations},
            "verdict_digest": record.verdict_digest}
