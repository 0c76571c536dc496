"""The shared outcome type of every relaxation run, and the shell every driver runs in."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Any, Optional


class Status(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    REJECT_NUMERIC = "reject-numeric"


@dataclass
class Verdict:
    """Outcome of a relaxation: accept with witness, or reject with certificate.

    ``reject-numeric`` marks the one non-rigorous outcome (a stalled numeric
    solve, which carries a ``NumericReject``); it is never to be treated as
    ground truth or conflated with a certified rejection.

    A ``reject`` carries:

    - from ``sa``, ``aip``, ``ba`` and the ``sos`` LP, a
      ``RejectionEvidence``: a Farkas or parity vector and the exact system
      it refutes;
    - from ``sdp`` and ``sos``, an ``Inconsistent`` trace of the exact affine
      phase, or a ``DualCertificate``: exact multipliers of the reduced Gram
      constraints whose combination is positive definite with a negative
      right-hand side;
    - from ``bw`` and ``minion-h``, nothing;
    - from ``oracle``, nothing: it is exempt, as an exhaustive search has no
      short certificate.

    ``stats`` has one schema for every driver:

    - ``vars`` and ``constraints``: the size of the last system the driver
      decided.  These are the columns and rows of a linear system (``sa``,
      ``aip``, ``ba``, and an ``sos`` whose marginal LP rejects), the labels
      and constraints of a Gram problem (``sdp``, ``sos``), the partial maps
      and the variable subsets of at most k atoms (``bw``), or the atoms and
      relation tuples of the tested structure (``oracle``, and the Horn test
      on the tensorised structure).  An ``sos`` Gram problem is posed on
      the presolved marginal system: its ``vars`` counts the columns, and
      its ``constraints`` the zero pairs inside each scope's group of
      columns, the presolved rows with right-hand side 0 and the unit
      groups.
    - ``millis``: the driver's wall time, set by :func:`driver`.
    - optional counters: ``pivots`` (simplex pivots), ``lp_support`` (``ba``:
      the variables in the LP's maximal support), ``reduced_dim`` (Gram
      representatives left by the exact affine phase) and ``iterations``
      (projection iterations).
    """

    algorithm: str
    level: Optional[int]
    status: Status
    witness: Any = None
    certificate: Any = None
    stats: dict = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.status is Status.ACCEPT

    def to_doc(self) -> dict:
        doc: dict = {
            "algorithm": self.algorithm,
            "level": self.level,
            "verdict": self.status.value,
            "stats": dict(self.stats),
        }
        if self.witness is not None:
            doc["witness"] = _jsonable(self.witness)
        if self.certificate is not None:
            doc["certificate"] = _jsonable(self.certificate)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True)


def driver(decide):
    """Run ``decide(X, A, ...)`` as a driver.

    The wrapper refuses a pair whose signatures differ, then times the call
    and records the wall time as ``stats["millis"]`` of the returned verdict.
    """

    @functools.wraps(decide)
    def run(X, A, *args, **kwargs) -> Verdict:
        X.require_same_signature(A)
        t0 = perf_counter()
        verdict = decide(X, A, *args, **kwargs)
        verdict.stats["millis"] = round(1000 * (perf_counter() - t0), 3)
        return verdict

    return run


def _jsonable(obj):
    """A witness or certificate's document; ``oracle``'s str-to-str map is one already."""
    return obj.to_doc() if hasattr(obj, "to_doc") else obj
