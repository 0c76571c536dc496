"""Outside-in tracing: spans around the calls into each minionlab module.

Nothing in minionlab is edited.  The drivers bind their collaborators with
``from ... import``, so each name is replaced in the module that *calls*
it: patching ``minionlab.exact_solvers.lp_feasible`` would record nothing,
while patching ``minionlab.hierarchies.lp_feasible`` records every call a
driver makes.  Methods are replaced on their classes.

A span has a name, a start, an end, a parent span and the query execution
it belongs to.  A layer's self time is the time of its spans minus the time
of their child spans.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import minionlab.free_structures as free_structures
import minionlab.hierarchies as hierarchies
from minionlab.free_structures import HornFreeStructure
from minionlab.system_builders import EqualitySystemBuilder
from minionlab.verdicts import Verdict


def _count_pivots(counts, args, result):
    counts["exact_solvers.pivots"] += result.pivots


def _count_support_pivots(counts, args, result):
    counts["exact_solvers.pivots"] += result[3]


def _count_psd(counts, args, result):
    counts["psd.reduced_dim"] += len(args[0].reps)
    counts["psd.iterations"] += getattr(result, "iterations", 0)


def _count_build(counts, args, result):
    counts["system_builders.raw_vars"] += len(result.key_order)
    counts["system_builders.cols"] += result.system.num_vars
    counts["system_builders.rows"] += result.system.num_rows


def _count_json(counts, args, result):
    counts["verdicts.bytes"] += len(result)


# (owner, attribute, the layer metric its self time feeds, counter)
PATCHES = [
    (hierarchies, "lp_feasible", "exact_solvers.lp_ms", _count_pivots),
    (hierarchies, "maximal_support", "exact_solvers.support_ms", _count_support_pivots),
    (hierarchies, "diophantine_solve", "exact_solvers.ip_ms", None),
    (hierarchies, "affine_reduce", "psd.affine_ms", None),
    (hierarchies, "psd_feasibility", "psd.solve_ms", _count_psd),
    (hierarchies, "k_enhance", "structures.enhance_ms", None),
    (hierarchies, "find_homomorphism", "structures.hom_ms", None),
    (hierarchies, "enumerate_partial_homomorphisms", "structures.partial_homs_ms", None),
    (hierarchies, "sa", "hierarchies.self_ms", None),
    (free_structures, "tensor_power", "structures.tensor_ms", None),
    (free_structures, "k_enhance", "structures.enhance_ms", None),
    (EqualitySystemBuilder, "build", "system_builders.build_ms", _count_build),
    (Verdict, "to_json", "verdicts.to_json_ms", _count_json),
]

# admits runs about a million times per slow Horn query and belongs to the
# same module as its caller, so it is counted, not timed
COUNTED = [(HornFreeStructure, "admits", "free_structures.admits_calls")]


def span_name(owner, attr: str) -> str:
    return f"{owner.__name__}.{attr}"


# the benchmark opens a span named "driver:<driver>" around each driver call
LAYER = {span_name(owner, attr): layer for owner, attr, layer, _ in PATCHES}
LAYER.update({f"driver:{d}": "hierarchies.self_ms"
              for d in ("bw", "sa", "aip", "ba", "sdp", "sos", "oracle")})
LAYER["driver:minion-h"] = "free_structures.self_ms"


class SpanRecorder:
    """Spans and counts, kept in memory while ``active``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, execution]
        self.counts: Counter = Counter()
        self.active = False
        self.execution = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else None, self.execution]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = perf_counter()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def layer_seconds(self, first: int) -> Counter:
        """Self seconds per layer over the spans recorded from index ``first``."""
        own = Counter()
        for name, start, end, parent, _ in self.spans[first:]:
            own[LAYER[name]] += end - start
            if parent is not None:
                own[LAYER[self.spans[parent][0]]] -= end - start
        return own


@contextmanager
def patched(recorder: SpanRecorder):
    """Install the recorder's wrappers; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, _layer, count in PATCHES:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, recorder.wrap(span_name(owner, attr), getattr(owner, attr), count))
        for owner, attr, name in COUNTED:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, recorder.counted(name, getattr(owner, attr)))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
