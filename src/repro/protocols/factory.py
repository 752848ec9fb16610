"""Protocol registry: name -> (core-port class, directory class).

Names accepted everywhere a protocol is selected (Machine, harness, CLI-ish
helpers):

* ``"so"``   — source-ordered write-through (baseline, §3.1)
* ``"cord"`` — directory-ordered write-through (the paper, §4)
* ``"cord-nonotify"`` — ablation: CORD without inter-directory
  notifications (cross-directory ordering done at the source)
* ``"mp"``   — message passing / posted writes (§3.2)
* ``"wb"``   — source-ordered write-back MESI
* ``"seq<k>"`` — monolithic k-bit sequence numbers (e.g. ``seq8``, ``seq40``)
* ``"tardis"`` — timestamp-counter coherence (lease-based reads, no
  invalidations or ack collection; Yu & Devadas' Tardis adapted to the
  write-through directory setting)

Every name resolves through its :mod:`repro.protocols.spec` transition
table: rule-complete tables run on the table interpreter
(:mod:`repro.protocols.table`, the same tables the model checker
executes) and ``wb``'s messages-only table names its MESI actor pair.
The ``cord-nonotify`` ablation subclasses CORD's table actors
(:mod:`repro.protocols.ablation`).
"""

from __future__ import annotations

import re
from typing import Tuple, Type

from repro.protocols.spec import get_spec, has_spec, spec_protocols
from repro.protocols.table import make_table_protocol

__all__ = [
    "protocol_classes",
    "available_protocols",
    "checkable_protocols",
    "validate_checkable_protocol",
]

#: Names the model checker does not model: ``wb``'s messages-only table
#: (MESI actors) and the ablation built on CORD's table actors.
_TIMED_ONLY = ("wb", "cord-nonotify")

_SEQ_PATTERN = re.compile(r"^seq(\d+)$")


def _check_seq_bits(name: str) -> None:
    match = _SEQ_PATTERN.match(name)
    if match:
        bits = int(match.group(1))
        if not 1 <= bits <= 64:
            raise ValueError(f"seq bit-width out of range: {bits}")


def protocol_classes(name: str) -> Tuple[Type, Type]:
    """Resolve a protocol name to its (core port, directory) classes.

    Raises :class:`ValueError` for unknown names (naming the valid
    choices) and out-of-range ``seq<k>`` widths — at factory time, never
    deep inside actor construction.
    """
    _check_seq_bits(name)
    if name == "cord-nonotify":
        from repro.protocols.ablation import (
            CordNoNotifyCorePort,
            CordNoNotifyDirectory,
        )

        return CordNoNotifyCorePort, CordNoNotifyDirectory
    if not has_spec(name, rules=False):
        raise ValueError(
            f"unknown protocol {name!r}; choose from {available_protocols()}"
        )
    return make_table_protocol(get_spec(name))


def available_protocols() -> Tuple[str, ...]:
    return spec_protocols() + _TIMED_ONLY


def checkable_protocols() -> Tuple[str, ...]:
    """Protocols the model checker has an untimed operational model for.

    ``wb`` (cache-state machine) and the ``cord-nonotify`` ablation are
    timed-only.
    """
    return spec_protocols()


def validate_checkable_protocol(name: str) -> None:
    """Raise a clear :class:`ValueError` if ``name`` cannot be model
    checked (previously an ``AttributeError`` deep inside exploration)."""
    _check_seq_bits(name)
    if has_spec(name):
        return
    detail = "is timed-only" if name in _TIMED_ONLY else "is unknown"
    raise ValueError(
        f"protocol {name!r} {detail} for model checking; "
        f"choose from {checkable_protocols()}"
    )
