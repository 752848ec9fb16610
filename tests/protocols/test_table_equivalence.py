"""Timed table-vs-legacy equivalence, pinned to the legacy actors' hashes.

The table interpreter (:mod:`repro.protocols.table`) replaced the
hand-written ``so``/``cord``/``mp``/``seq``/``wb`` actors. Before those
actors were deleted, each point below was run through them and its
``final_state_hash`` recorded in :data:`LEGACY_HASHES` — a SHA-256 over
final registers, timings and the *full* stats dict, so a single extra
message, stall nanosecond or counter bump fails the comparison.

(``tests/test_state_hash.py`` pins a wider basket and may be regenerated
when the model changes on purpose; this module keeps the table stack tied
to what the legacy actors produced.)
"""

import pytest

from repro.config import CXL
from repro.harness import RunSpec
from repro.harness.executor import _execute_spec
from repro.harness.experiments import default_config
from repro.workloads.micro import MicroSpec
from repro.workloads.table2 import APPLICATIONS

#: Small-but-busy micro point: fine stores, frequent releases, fanout 2
#: exercises cross-slice traffic; small total keeps the run fast.
MICRO = MicroSpec(store_granularity=64, sync_granularity=4096, fanout=2,
                  total_bytes=32 * 1024)

POINTS = [
    ("so", RunSpec(kind="app", protocol="so", workload=APPLICATIONS["CR"],
                   config=default_config(CXL), seed=0,
                   experiment="table-equivalence")),
    ("cord", RunSpec(kind="app", protocol="cord",
                     workload=APPLICATIONS["CR"],
                     config=default_config(CXL), seed=0,
                     experiment="table-equivalence")),
    ("seq8", RunSpec(kind="micro", protocol="seq8", workload=MICRO,
                     config=default_config(CXL), seed=0,
                     experiment="table-equivalence")),
    ("seq40", RunSpec(kind="micro", protocol="seq40", workload=MICRO,
                      config=default_config(CXL), seed=0,
                      experiment="table-equivalence")),
    ("mp", RunSpec(kind="app", protocol="mp", workload=APPLICATIONS["CR"],
                   config=default_config(CXL), seed=0,
                   experiment="table-equivalence")),
    # wb resolves through its spec's declared actor pair — the same
    # classes the legacy routing used.
    ("wb", RunSpec(kind="app", protocol="wb", workload=APPLICATIONS["CR"],
                   config=default_config(CXL), seed=0,
                   experiment="table-equivalence")),
]

#: ``final_state_hash`` of each point as run on the hand-written actors,
#: where the table interpreter gave byte-identical results.
LEGACY_HASHES = {
    "so": "5bfe1bc57f723c9f482d38fec8993ab1cbe7d6457fbcc878cf7b053c313af878",
    "cord": "638b9b50f3bc1af592fd8ef5c156df3628484ccc28f00eb75f3750920990bac1",
    "seq8": "5f482019c96958b32dd42686686da55ddb61ea6c52a70e19e0919a243f2a1784",
    "seq40": "cb8dbae85397875a0a9526eef7147f03864ff8512e7ed024c5b2a16909ee8a63",
    "mp": "6c3094d8f4b8933bf38c5d22cbbca3ddd1db0376eb741968244847812941057b",
    "wb": "e3926e57f6182b270aa2ebce9b0a36628146d6420b4fadbc3f51f53c99d20586",
}


class TestTimedEquivalence:
    def test_every_point_has_a_legacy_hash(self):
        assert sorted(LEGACY_HASHES) == sorted(label for label, _ in POINTS)

    @pytest.mark.parametrize("label,spec", POINTS,
                             ids=[label for label, _ in POINTS])
    def test_final_state_hash_matches_legacy(self, label, spec):
        table = _execute_spec(spec).final_state_hash
        assert table == LEGACY_HASHES[label], (
            f"{label}: table interpreter diverged from the legacy actors"
        )
