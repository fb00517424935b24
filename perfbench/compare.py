"""Compare two result sets of the benchmark, per workload and per layer.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the run records ``run.py`` writes under
``perfbench/out/records/`` (move them aside between the two sides).
For every workload and end-to-end metric it prints each side's median
and quartiles, the share of pairs the change won (runs paired by seed;
ties count for neither), the relative gap, and whether the gap is worse
than the metric's bound in ``BENCHMARK.json``.  A metric whose base
spread exceeds its bound is reported as unresolved unless every change
run beats every base run.  A gain needs at least :data:`MIN_PAIRS`
pairs, nine tenths of them won, and a median gap wider than the base
runs' interquartile range; fewer pairs read "too few pairs".  For
traced runs it prints the per-layer deltas of the medians and flags
every counter that did not repeat exactly between runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import stats  # noqa: E402
from perfbench.layers import COUNTER_UNITS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Seed-paired runs a gain needs (the claim rule: ten pairs or more).
MIN_PAIRS = 10


def load_records(directory: Path) -> list[dict]:
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def group(records: list[dict], traced: bool) -> dict:
    """workload -> seed -> list of metric dicts."""
    table: dict = defaultdict(lambda: defaultdict(list))
    for record in records:
        meta = record["detail"]["provenance"]
        if bool(meta["trace"]) != traced:
            continue
        metrics = {name: m["value"]
                   for name, m in record["result"]["metrics"].items()}
        table[meta["workload"]][meta["seed"]].append(metrics)
    return table


def pair_wins(base: dict, change: dict, name: str, lower: bool
              ) -> tuple[int, int, bool]:
    """(change wins, pairs, every change run beats every base run)."""
    wins = pairs = 0
    for seed in sorted(set(base) & set(change)):
        for a, b in zip(base[seed], change[seed]):
            pairs += 1
            if (b[name] < a[name]) if lower else (b[name] > a[name]):
                wins += 1
    a_all = [m[name] for runs in base.values() for m in runs]
    b_all = [m[name] for runs in change.values() for m in runs]
    dominates = bool(a_all and b_all) and (
        max(b_all) < min(a_all) if lower else min(b_all) > max(a_all))
    return wins, pairs, dominates


def end_to_end_report(base: dict, change: dict, spec: dict) -> list[str]:
    lines = []
    for workload in sorted(set(base) | set(change)):
        lines.append(f"== {workload} (end to end)")
        lines.append(f"{'metric':<16} {'base median [Q1,Q3]':>32} "
                     f"{'change median [Q1,Q3]':>32} {'won':>7} "
                     f"{'gap':>8}  verdict")
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            a = [m[name] for runs in base.get(workload, {}).values()
                 for m in runs]
            b = [m[name] for runs in change.get(workload, {}).values()
                 for m in runs]
            if not a or not b:
                lines.append(f"{name:<16} (missing on one side)")
                continue
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            wins, pairs, dominates = pair_wins(
                base[workload], change[workload], name, lower)
            gap = (qb[1] - qa[1]) / qa[1]
            worse = gap if lower else -gap
            if worse > metric["bound"]:
                verdict = "REGRESSION beyond bound"
            elif stats.relative_spread(a) > metric["bound"] and not dominates:
                verdict = "unresolved (base spread above bound)"
            elif wins >= 0.9 * pairs and abs(qb[1] - qa[1]) > (
                    qa[2] - qa[0]):
                verdict = "gain" if pairs >= MIN_PAIRS else "too few pairs"
            else:
                verdict = "within bound"
            lines.append(
                f"{name:<16} {_fmt(qa):>32} {_fmt(qb):>32} "
                f"{wins:>3}/{pairs:<3} {gap:>+8.1%}  {verdict}")
    return lines


def layer_report(base: dict, change: dict, units: dict) -> list[str]:
    lines = []
    for workload in sorted(set(base) | set(change)):
        lines.append(f"== {workload} (per layer, traced)")
        names = sorted({n for side in (base, change)
                        for runs in side.get(workload, {}).values()
                        for m in runs for n in m})
        for name in names:
            a = [m[name] for runs in base.get(workload, {}).values()
                 for m in runs if name in m]
            b = [m[name] for runs in change.get(workload, {}).values()
                 for m in runs if name in m]
            flags = []
            if units.get(name) in COUNTER_UNITS:
                for label, side in (("base", base), ("change", change)):
                    for seed, runs in side.get(workload, {}).items():
                        if len({m.get(name) for m in runs}) > 1:
                            flags.append(f"{label} seed {seed} did not "
                                         f"repeat")
            if not a or not b:
                lines.append(f"{name:<42} (missing on one side)")
                continue
            ma, mb = stats.quartiles(a)[1], stats.quartiles(b)[1]
            lines.append(f"{name:<42} {ma:>14.6g} -> {mb:<14.6g} "
                         f"delta {mb - ma:+.6g}"
                         + (f"  [{'; '.join(flags)}]" if flags else ""))
    return lines


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g},{q[2]:.4g}]"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    base, change = load_records(args.base), load_records(args.change)
    lines = end_to_end_report(group(base, False), group(change, False), spec)
    lines += layer_report(group(base, True), group(change, True), units)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
