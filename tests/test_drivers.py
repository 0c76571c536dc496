"""The shell every driver runs in: levels, the stats schema, and the
collaborators each driver reaches through its module."""

import pytest

import minionlab.free_structures as free_structures
import minionlab.hierarchies as hierarchies
from minionlab import (
    Signature,
    Structure,
    Verdict,
    aip,
    ba,
    bw,
    minion_test_horn_level,
    oracle,
    sa,
    sdp,
    sos,
)
from minionlab.errors import ArityMismatch, SignatureMismatch
from minionlab.hierarchies import RejectionEvidence

from conftest import clique, not_all_equal, one_in_three

LEVELLED = {"bw": bw, "sa": sa, "aip": aip, "ba": ba, "sos": sos, "minion-h": minion_test_horn_level}
LEVEL_FREE = {"sdp": sdp, "oracle": oracle}


def decide(name: str, X, A, k: int = 1) -> Verdict:
    if name in LEVEL_FREE:
        return LEVEL_FREE[name](X, A)
    return LEVELLED[name](X, A, k)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("name", sorted(LEVELLED))
def test_levels_below_one_are_refused(name, k, k3, k2):
    with pytest.raises(ArityMismatch):
        decide(name, k3, k2, k)


@pytest.mark.parametrize("name", sorted(LEVELLED) + sorted(LEVEL_FREE))
def test_a_pair_whose_signatures_differ_is_refused(name, k3):
    arc = Structure(Signature.of({"E": 2}), ["0", "1"], {"E": [("0", "1")]})
    with pytest.raises(SignatureMismatch):
        decide(name, k3, arc)


# (X, A, k, rejects that carry a refuted system): 1-in-3 into NAE is accepted
# by every driver; K3 into K2 is refuted by aip and ba in their integer phase
# at level 1, and at level 3 also by sa, ba and sos on the marginal LP
SCHEMA_CASES = [(one_in_three(), not_all_equal(), 1, 0), (clique(3), clique(2), 1, 2),
                (clique(3), clique(2), 3, 4)]


@pytest.mark.parametrize("X, A, k, refuted", SCHEMA_CASES, ids=["1in3-NAE-1", "K3-K2-1", "K3-K2-3"])
def test_stats_follow_the_documented_schema(X, A, k, refuted):
    systems = 0
    for name in sorted(LEVELLED) + sorted(LEVEL_FREE):
        verdict = decide(name, X, A, k)
        stats = verdict.stats
        assert {"vars", "constraints", "millis"} <= set(stats), name
        assert all(f"``{key}``" in Verdict.__doc__ for key in stats), (name, stats)
        if isinstance(verdict.certificate, RejectionEvidence):
            system = verdict.certificate.system
            assert (stats["vars"], stats["constraints"]) == (system.num_vars, system.num_rows)
            systems += 1
    assert systems == refuted


# every name minionbench/spans.py replaces to time a layer, by driver
SEAMS = {
    "bw": {"hierarchies.enumerate_partial_homomorphisms"},
    "sa": {"hierarchies.k_enhance", "hierarchies.lp_feasible"},
    "aip": {"hierarchies.k_enhance", "hierarchies.diophantine_solve"},
    "ba": {"hierarchies.k_enhance", "hierarchies.maximal_support", "hierarchies.diophantine_solve"},
    "sos": {"hierarchies.k_enhance", "hierarchies.lp_feasible", "hierarchies.affine_reduce",
            "hierarchies.psd_feasibility"},
    "sdp": {"hierarchies.affine_reduce", "hierarchies.psd_feasibility"},
    "oracle": {"hierarchies.find_homomorphism"},
    "minion-h": {"free_structures.k_enhance", "free_structures.tensor_power"},
}


def test_drivers_reach_their_collaborators_through_the_module(monkeypatch):
    # a driver that bound a collaborator at import time (in a dict of solvers,
    # say) would bypass the replaced name, and its layer would read zero
    reached = set()

    def counting(label, fn):
        def wrapper(*args, **kwargs):
            reached.add(label)
            return fn(*args, **kwargs)
        return wrapper

    for module in (hierarchies, free_structures):
        short = module.__name__.rsplit(".", 1)[1]
        for label in set().union(*SEAMS.values()):
            owner, attr = label.split(".")
            if owner == short:
                monkeypatch.setattr(module, attr, counting(label, getattr(module, attr)))
    X, A = one_in_three(), not_all_equal()
    for name, seams in SEAMS.items():
        reached.clear()
        assert decide(name, X, A).accepted
        assert reached == seams, name
