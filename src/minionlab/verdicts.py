"""The shared outcome type of every relaxation run."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class Status(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    REJECT_NUMERIC = "reject-numeric"


@dataclass
class Verdict:
    """Outcome of a relaxation: accept with witness, or reject with certificate.

    ``reject-numeric`` marks the one non-rigorous outcome (a stalled numeric
    solve); it is never to be treated as ground truth or conflated with a
    certified rejection.
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


def _jsonable(obj):
    if hasattr(obj, "to_doc"):
        return obj.to_doc()
    if hasattr(obj, "to_json"):
        return json.loads(obj.to_json())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)
