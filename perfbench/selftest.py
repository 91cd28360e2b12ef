"""Self-test of the output checks: each planted fault is one failed op.

    python3 perfbench/selftest.py

Builds correct rounds for a few real scripts, then plants one fault in
each: a wrong END digest, a missing end record, a stale standby read
and a recovered-count mismatch.  Exits 0 when every correct round
scores no failure and every planted fault scores exactly one.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from repro.core import fetch_quest_game  # noqa: E402
from repro.students import cohort_scripts  # noqa: E402

N = 4


def correct_round(game, scripts):
    refs = checks.references(game, scripts)
    expected = [(f"s-{k}", s.ops, s.dt) for k, s in enumerate(scripts)]
    ends = {}
    for pid, ops, dt in expected:
        ref = refs[checks.script_key(ops, dt)]
        ends[pid] = {"digest": ref.digest, "outcome": ref.outcome,
                     "steps": ref.steps, "failed": False}
    return expected, refs, ends


def main() -> int:
    game = fetch_quest_game(n_quests=2).build()
    scripts = cohort_scripts(game, N, seed=7)
    expected, refs, ends = correct_round(game, scripts)
    digests = {pid: e["digest"] for pid, e in ends.items()}
    rounds = {
        "serve-mem": {"ends": ends},
        "gateway-wal": {"ends": ends, "journals": [(sorted(ends), 0), ([], 0)]},
        "cluster-quorum": {
            "ends": ends, "caught_up": True,
            "reads": [("s-0", 0.001, "done", digests["s-0"])],
            "standby_digests": {"standby-1": dict(digests)},
        },
        "recover": {"ends": ends, "live": N, "torn": 1},
    }
    faults = {
        "serve-mem": ("wrong digest", lambda r: r["ends"]["s-1"].update(digest="0" * 64)),
        "gateway-wal": ("missing end record", lambda r: r["journals"][0][0].remove("s-2")),
        "cluster-quorum": ("stale standby read", lambda r: r.update(
            reads=[("s-0", 0.001, "replica", digests["s-0"])])),
        "recover": ("recovered-count mismatch", lambda r: r.update(live=N - 1)),
    }
    ok = True
    for workload, rnd in rounds.items():
        _, failed, reasons = checks.score_round(rnd, expected, refs, N, 1)
        ok &= _report(f"{workload} correct", failed, 0, reasons)
        planted = copy.deepcopy(rnd)
        name, plant = faults[workload]
        plant(planted)
        _, failed, reasons = checks.score_round(planted, expected, refs, N, 1)
        ok &= _report(f"{workload} {name}", failed, 1, reasons)
    return 0 if ok else 1


def _report(label: str, failed: int, want: int, reasons) -> bool:
    good = failed == want
    print(f"{'ok ' if good else 'BAD'} {label}: {failed} failed (want {want}) {reasons}")
    return good


if __name__ == "__main__":
    sys.exit(main())
