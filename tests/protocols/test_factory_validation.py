"""Factory-time validation and protocol routing.

Unknown protocol names and uncheckable combinations must fail at the
factory with errors that name the valid choices — not as attribute
errors deep inside actor construction or state exploration.
"""

import pytest

from repro import Machine, SystemConfig
from repro.litmus.dsl import LitmusTest, ld, st
from repro.litmus.model_checker import ModelChecker
from repro.protocols.factory import (
    available_protocols,
    checkable_protocols,
    protocol_classes,
    validate_checkable_protocol,
)
from repro.protocols.table import TableCorePort, TableDirectory

SMOKE = LitmusTest(
    name="smoke",
    locations={"x": 0},
    programs=[[st("x", 1)], [ld("x", "r0")]],
)


class TestFactoryValidation:
    def test_unknown_name_names_the_choices(self):
        with pytest.raises(ValueError) as err:
            protocol_classes("mesi")
        message = str(err.value)
        assert "mesi" in message
        for name in available_protocols():
            assert name in message

    def test_machine_rejects_unknown_protocol_at_construction(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            Machine(SystemConfig().scaled(hosts=2, cores_per_host=1),
                    protocol="mesi")

    @pytest.mark.parametrize("name", ["seq0", "seq65", "seq999"])
    def test_seq_width_bounds(self, name):
        with pytest.raises(ValueError, match="bit-width"):
            protocol_classes(name)

    @pytest.mark.parametrize("name", ["wb", "cord-nonotify"])
    def test_timed_only_protocols_rejected_by_checker(self, name):
        with pytest.raises(ValueError, match="timed-only"):
            ModelChecker(SMOKE, name)

    def test_unknown_protocol_rejected_by_checker(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelChecker(SMOKE, "mesi")

    def test_checkable_set(self):
        assert checkable_protocols() == ("so", "cord", "mp", "seq<k>",
                                         "tardis")
        for name in ("so", "cord", "mp", "seq2", "seq40", "tardis"):
            validate_checkable_protocol(name)  # must not raise


class TestRouting:
    """Every name resolves through its spec; the ablation rides CORD's
    table actors."""

    def test_every_available_name_resolves(self):
        for name in available_protocols():
            port_cls, dir_cls = protocol_classes(
                "seq8" if name == "seq<k>" else name)
            assert isinstance(port_cls, type) and isinstance(dir_cls, type)

    def test_default_is_table_driven(self):
        for name in ("so", "cord", "mp", "seq8"):
            port_cls, dir_cls = protocol_classes(name)
            assert issubclass(port_cls, TableCorePort)
            assert issubclass(dir_cls, TableDirectory)

    def test_tardis_routes_to_table_actors(self):
        port_cls, dir_cls = protocol_classes("tardis")
        assert port_cls.__name__ == "TableTardisCorePort"
        assert dir_cls.__name__ == "TableTardisDirectory"
        assert issubclass(port_cls, TableCorePort)
        assert issubclass(dir_cls, TableDirectory)

    def test_wb_routes_through_spec_actors(self):
        # wb has a messages-only spec with a declared actor pair.
        port_cls, dir_cls = protocol_classes("wb")
        assert port_cls.__name__ == "WbCorePort"
        assert dir_cls.__name__ == "WbDirectory"

    def test_cord_nonotify_subclasses_table_cord(self):
        cord_port, cord_dir = protocol_classes("cord")
        assert cord_port.__name__ == "TableCordCorePort"
        port_cls, dir_cls = protocol_classes("cord-nonotify")
        assert port_cls is not cord_port
        assert issubclass(port_cls, cord_port)
        assert issubclass(dir_cls, cord_dir)
