"""The three workloads: which queries each runs, and why.

A query is (driver, level, X, A).  ``lp-colouring`` and ``gram`` are fixed
lists; ``digraph-sweep`` is a stratified selection from 3-vertex digraphs.  A job is what the benchmark
times as one query.  Each workload query is its own job.  One more job, the
grounding, decides back to back the ANCHORS and ``oracle`` on every pair
the workload uses.  The grounding feeds the correctness gate and makes
every measured layer do some work on every workload.  Timing it as one job
keeps a dozen sub-millisecond calls from setting the workload's p50.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from inputs import digraph_classes, renamed_round_trip


@dataclass(frozen=True)
class Query:
    driver: str
    k: Optional[int]
    x: str
    a: str

    @property
    def head(self) -> str:
        return self.driver if self.k is None else f"{self.driver}^{self.k}"

    @property
    def qid(self) -> str:
        return f"{self.head}:{self.x}>{self.a}"

    @property
    def cell(self) -> str:
        """The digraph-sweep stratum: driver, level and target."""
        return f"{self.head}>{self.a}"


ANCHORS = [
    # pinned facts
    Query("aip", 1, "K3", "K2"),
    Query("sdp", None, "K3", "K2"),
    Query("sos", 1, "K3", "K2"),
    Query("bw", 3, "K3", "K2"),
    Query("ba", 1, "1in3", "NAE"),
    # sa^3 rejects K3 -> K2 by sa => bw; a Farkas certificate in every workload
    Query("sa", 3, "K3", "K2"),
    # 1in3 -> NAE is a homomorphism, so by completeness every relaxation accepts
    Query("sa", 1, "1in3", "NAE"),
    Query("aip", 1, "1in3", "NAE"),
    Query("sos", 1, "1in3", "NAE"),
    Query("minion-h", 1, "1in3", "NAE"),
]

# On a shared host a long execution rarely runs at full speed, so its
# fastest time still carries the host's load; a short one often does.  So
# no job of lp-colouring or gram takes much over 100 ms (the one
# reject-numeric aside), and each runs 12-20 times in a 35 s run.  Left out
# for that reason: sa^1 on K4, C4, C5 -> K3 and K3 -> K4 (0.25-3 s),
# sa^2 C5 -> K3 and K4 -> K3, ba^2 K4 -> K3, ba^1 C4 -> K3, sa or ba on the
# wheel W5 -> K3 (7-20 s), and aip^2 on C9, C11 -> K2, whose Hermite-form
# checks take 0.2 and 1 s.
LP_COLOURING = [
    *(Query("sa", 2, x, "K2") for x in ("K3", "K4", "C4", "C5", "W5")),
    *(Query("sa", 2, x, a) for x, a in (("K3", "K4"), ("C4", "K3"))),
    *(Query("ba", 1, x, "K2") for x in ("C4", "C6")),
    *(Query("ba", 2, x, "K2") for x in ("K4", "C4", "C5", "W5")),
    *(Query("aip", 1, x, a) for x, a in (("W5", "K3"), ("C7", "K4"), ("W5", "K4"))),
    *(Query("aip", 2, x, "K2") for x in ("C5", "W5", "C7")),  # Hermite-form certificates
    *(Query("aip", 2, x, a) for x, a in (("W5", "K3"), ("C5", "K4"), ("C7", "K3"), ("C4", "K4"),
                                         ("C6", "K3"))),
]

# Every query here but the last decides in 1-100 ms.  Left out for the same
# reason: sdp and sos on C4, C5, C7 -> K3 and on K3 -> K3 (0.3-160 s), and
# sdp or sos^1 on K4 -> K3 (2-5 s, reject-numeric).  sos^2 K4 -> K3 is the
# one query whose PSD iterations run to a numeric rejection (about 1200
# iterations, 1 s), so it stays.
GRAM = [
    *(Query("sdp", None, x, a) for x, a in (
        ("K2", "K3"), ("K2", "C4"), ("D6", "K3"), ("D12", "K3"), ("D10", "C4"), ("1in3", "NAE"),
        ("K3", "C4"), ("K4", "C4"), ("C5", "C4"), ("C7", "C4"), ("DT", "C4"), ("K3", "K2"),
        ("C5", "K2"))),
    *(Query("sos", 1, x, a) for x, a in (
        ("K2", "C4"), ("DT", "K3"), ("C4", "K2"), ("C6", "K2"), ("1in3", "NAE"), ("DT", "C4"),
        ("K3", "K2"))),
    *(Query("sos", 2, x, a) for x, a in (
        ("K2", "K3"), ("K2", "C4"), ("C4", "K2"), ("1in3", "NAE"), ("K3", "C4"), ("DT", "C4"),
        ("C6", "DT"), ("C5", "K2"), ("K3", "K2"), ("K4", "K2"))),
    Query("sos", 2, "K4", "K3"),  # reject-numeric after about 1200 iterations
]

SWEEP_TARGETS = ("K2", "K3", "C4", "DT")
SWEEP_DRIVERS = [(d, k) for d in ("bw", "sa", "aip", "ba", "minion-h") for k in (1, 2)] + [("oracle", None)]
# Horn level 2 on a looped digraph into the 4-atom C4 searches a 2^16-element
# free structure and rejects.  Three fixed ones (0.4-0.9 s each) keep that
# search measured, and the rest of Horn level 2 into C4 stays out of the
# selection.  The 16 classes whose search takes 3-22 s (D20, D22, D28, ...)
# are left out: one of them would take a third of a run.
SWEEP_HORN_C4 = [Query("minion-h", 2, f"D{m}", "C4") for m in (1, 7, 255)]
SWEEP_PER_CELL = 5


def sweep_pool() -> list[Query]:
    """Every query the digraph sweep selects from."""
    return [Query(d, k, f"D{m}", a) for d, k in SWEEP_DRIVERS for a in SWEEP_TARGETS
            for m in digraph_classes()]


def sweep_selection(expected: dict) -> list[Query]:
    """SWEEP_PER_CELL digraphs per (driver, level, target) cell, stratified.

    Each cell takes ACCEPTs in proportion to their share in the pool, but at
    least one when there is any.  The counts depend only on the committed
    expectations, so the verdict mix, which sets how many queries run the LP
    to a witness, is fixed.  Within a verdict the digraphs are ranked by
    edge count and cut into equal slices, and the middle digraph of each
    slice is taken.  A seeded pick among the three middle digraphs of each
    slice moved the sweep's p90 by 22 % and its peak memory by 17 % between
    seeds (quartile spread over 10 seeds), more than any bound could absorb
    on top of the host's own noise; so the seed only renames atoms and
    orders the jobs here, as it does in the other workloads.
    """
    cells: dict = {}
    for q in sweep_pool():
        if q.cell != "minion-h^2>C4":
            cells.setdefault(q.cell, {"accept": [], "reject": []})[expected[q.qid]].append(q)
    out = list(SWEEP_HORN_C4)
    for _cell, by_verdict in sorted(cells.items()):
        acc, rej = by_verdict["accept"], by_verdict["reject"]
        n_acc = min(len(acc), max(1, round(SWEEP_PER_CELL * len(acc) / (len(acc) + len(rej)))))
        n_acc = max(n_acc, SWEEP_PER_CELL - len(rej))
        out += _middles(acc, n_acc) + _middles(rej, SWEEP_PER_CELL - n_acc)
    return out


def _middles(qs: list[Query], n: int) -> list[Query]:
    """The middle query of each of n equal slices of ``qs`` ranked by X's edge count."""
    ranked = sorted(qs, key=lambda q: (bin(int(q.x[1:])).count("1"), int(q.x[1:])))
    return [ranked[(len(ranked) * i // n + len(ranked) * (i + 1) // n) // 2] for i in range(n)]


HOT_MODULE = {"lp-colouring": "exact_solvers", "gram": "psd", "digraph-sweep": "free_structures"}


def grounding(own: list[Query]) -> tuple[Query, ...]:
    """The ANCHORS plus ``oracle`` on every pair, minus what ``own`` already runs."""
    pairs = sorted({(q.x, q.a) for q in own + ANCHORS})
    ground = ANCHORS + [Query("oracle", None, x, a) for x, a in pairs]
    return tuple(q for q in dict.fromkeys(ground) if q not in own)


def fixed_queries() -> list[Query]:
    """Every query of ``lp-colouring`` and ``gram``, grounding included."""
    return [q for own in (LP_COLOURING, GRAM) for q in own + list(grounding(own))]


def jobs(workload: str, seed: int, expected: dict) -> list[tuple[Query, ...]]:
    """The workload's jobs in the seeded order they run in."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "lp-colouring":
        own = LP_COLOURING
    elif workload == "gram":
        own = GRAM
    elif workload == "digraph-sweep":
        own = sweep_selection(expected)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = [(q,) for q in own] + [grounding(own)]
    rng.shuffle(out)
    return out


def structures(job_list: list[tuple[Query, ...]], seed: int) -> dict:
    """Each structure the jobs name, renamed from the seed and parsed from JSON."""
    rng = random.Random(f"structures/{seed}")
    names = sorted({n for job in job_list for q in job for n in (q.x, q.a)})
    return {n: renamed_round_trip(n, rng) for n in names}
