"""The model checker's memoized keys and compiled dispatch.

* **Type hints** — the checker's state classes carry resolvable
  annotations.
* **Key memo** — every explored state's memoized key equals a key rebuilt
  from scratch here.  A transition that mutates a component without its
  ``mutable_*`` accessor leaves a stale fragment behind, and this is the
  test that notices.
* **Compiled vs interpreted** — ``REPRO_INTERPRETED_TABLES=1`` runs every
  table row through its closure; both dispatch modes must explore the
  same state graphs.  With compiled dispatch only the ``*_CALL`` rows may
  use the closure path.
"""

import json
import typing

import pytest

from repro.litmus import model_checker as mc
from repro.litmus.generate import generated_suite
from repro.litmus.model_checker import ModelChecker
from repro.litmus.suite import CaseSpec, classic_tests, custom_tests
from repro.protocols.compile import (
    A_CALL,
    D_CALL,
    INTERPRETED_ENV,
    compile_spec,
)
from repro.protocols.spec import get_spec

KEY_PROTOCOLS = ("cord", "so", "tardis", "seq8", "mp")


def _checker(case):
    return ModelChecker(case.test, protocol=case.protocol,
                        cord_config=case.cord_config, tso=case.tso,
                        max_states=200_000)


def _key_cases():
    cases = [CaseSpec(test=test, protocol=protocol)
             for test in classic_tests() for protocol in KEY_PROTOCOLS]
    custom = custom_tests()
    cases.append(next(case for case in custom if case.tso))
    cases.append(next(case for case in custom
                      if case.test.name.endswith(".tiny")))
    return cases


def _fresh_key(state):
    """The visited-set key with every fragment rebuilt from the state."""
    cores = tuple(
        (core.pc, tuple(sorted(core.regs.items())),
         core.cord.checker_key() if core.cord is not None else None,
         core.so_outstanding, core.fence_issued, core.blocked,
         core.seq_next, core.seq_outstanding)
        for core in state.cores)
    ranks, sent = [], {}
    for msg in state.network:
        ranks.append(sent.get(msg.fifo_class, 0))
        sent[msg.fifo_class] = ranks[-1] + 1
    flight = sorted(
        zip(state.network, ranks),
        key=lambda pair: (pair[0].kind, str(pair[0].dst_dir),
                          str(pair[0].dst_core), pair[0].seq))
    return (
        cores,
        tuple(directory.checker_key() for directory in state.dirs),
        tuple(tuple(sorted(values.items())) for values in state.values),
        tuple(sorted(state.seq_committed.items())),
        tuple(((msg.kind, msg.dst_dir, msg.dst_core, mc._freeze(msg.fields),
                msg.fifo_class), rank) for msg, rank in flight),
    )


class TestStateTypeHints:
    @pytest.mark.parametrize("klass", [mc._State, mc._CoreState, mc._Msg])
    def test_annotations_resolve(self, klass):
        hints = typing.get_type_hints(klass)
        assert hints


class TestKeyMemo:
    def test_memoized_keys_match_fresh_keys(self, monkeypatch):
        memoized = ModelChecker._key
        checked = []
        mismatches = []

        def key(self, state):
            result = memoized(self, state)
            checked.append(1)
            if result != _fresh_key(state):
                mismatches.append(f"{self.test.name}@{self.protocol}")
            return result

        monkeypatch.setattr(ModelChecker, "_key", key)
        for case in _key_cases():
            _checker(case).run()
        assert mismatches == []
        assert len(checked) > 10_000


def _graph(case):
    checker = _checker(case)
    result = checker.run()
    outcomes = sorted(json.dumps(outcome, sort_keys=True)
                      for outcome in result.outcomes)
    return ((result.states_explored, int(result.stats["transitions"]),
             result.deadlocks, outcomes), checker.closure_calls)


def _closure_rows():
    """Rows whose closure is their only dispatch: ``A_CALL`` issue rows
    and ``D_CALL`` delivery rows of the shipped checkable tables."""
    names = set()
    for protocol in KEY_PROTOCOLS:
        compiled = compile_spec(get_spec(protocol))
        names.update(row.name for row in compiled.issue.values()
                     if row.action_op == A_CALL)
        names.update(name for name, row in compiled.delivery.items()
                     if row.op == D_CALL)
    return names


SUITES = {
    "classic": lambda: [CaseSpec(test=test, protocol=protocol)
                        for test in classic_tests()
                        for protocol in KEY_PROTOCOLS],
    "custom": custom_tests,
    "generated": lambda: generated_suite(count=3, seed=0),
}


class TestCompiledVsInterpreted:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_identical_state_graphs(self, monkeypatch, suite):
        cases = SUITES[suite]()
        monkeypatch.delenv(INTERPRETED_ENV, raising=False)
        compiled = [_graph(case) for case in cases]
        monkeypatch.setenv(INTERPRETED_ENV, "1")
        interpreted = [_graph(case) for case in cases]
        assert [graph for graph, _ in compiled] == \
            [graph for graph, _ in interpreted]

        # Compiled dispatch falls back only on *_CALL rows, and counts it.
        allowed = _closure_rows()
        fallbacks = set()
        for _, calls in compiled:
            fallbacks.update(calls)
        assert fallbacks <= allowed, sorted(fallbacks - allowed)
        # Interpreted dispatch runs the lowered rows' closures too.
        closures = set()
        for _, calls in interpreted:
            closures.update(calls)
        assert closures - allowed

    def test_closure_calls_are_reported(self, monkeypatch):
        faa = next(test for test in classic_tests()
                   if "FAA" in test.name.upper())
        monkeypatch.delenv(INTERPRETED_ENV, raising=False)
        result = ModelChecker(faa, "cord").run()
        assert result.stats["closure_calls"] > 0
        mp = next(test for test in classic_tests()
                  if test.name.startswith("MP."))
        assert ModelChecker(mp, "cord").run().stats["closure_calls"] == 0
