#!/usr/bin/env python3
"""Recompute expected.json, the verdicts the correctness gate compares against.

Run from the repository root after a change that is meant to alter a
verdict (a ``reject-numeric`` becoming rigorous, say):

    python3 minionbench/make_expected.py

It decides every fixed query and the whole digraph-sweep pool on the
structures as built (verdicts do not depend on atom names), and refuses to
write a table that breaks completeness against ``oracle`` or a containment
between hierarchies.  The sweep pool takes a few minutes, most of it Horn
level 2 into C4.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


import inputs  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from measure import Loop  # noqa: E402


def main() -> int:
    fixed = list(dict.fromkeys(workloads.fixed_queries()))
    pool = workloads.sweep_pool()
    names = sorted({n for q in fixed + pool for n in (q.x, q.a)})
    structs = {n: inputs.build(n) for n in names}
    loop = Loop([], structs, {})
    statuses = {}
    for q in fixed + pool:
        statuses[q] = loop.call(q, structs[q.x], structs[q.a]).status
    bad = verify.relation_violations(statuses)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    letters = {"accept": "a", "reject": "r"}
    sweep: dict = {}
    for q in pool:  # pool order is cell by cell, digraph classes in order
        sweep[q.cell] = sweep.get(q.cell, "") + letters[statuses[q].value]
    doc = {"fixed": {q.qid: statuses[q].value for q in fixed}, "sweep": sweep}
    verify.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
