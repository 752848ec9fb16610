"""Tests for message and node-id primitives."""

from repro.interconnect import Message, NodeId


class TestNodeId:
    def test_constructors(self):
        core = NodeId.core(5, 0)
        directory = NodeId.directory(9, 1)
        assert core.kind == "core" and core.index == 5 and core.host == 0
        assert directory.kind == "dir" and directory.host == 1

    def test_equality_and_hash(self):
        assert NodeId.core(1, 0) == NodeId.core(1, 0)
        assert NodeId.core(1, 0) != NodeId.directory(1, 0)
        assert len({NodeId.core(1, 0), NodeId.core(1, 0)}) == 1

    def test_hash_equals_field_tuple_hash(self):
        # Set iteration order, and with it every pinned final-state hash,
        # depends on node ids hashing exactly like their field tuples.
        for kind, index, host in (("core", 0, 0), ("dir", 9, 1),
                                  ("mem", 3, 7)):
            assert hash(NodeId(kind, index, host)) == hash((kind, index, host))

    def test_ordering_is_total(self):
        nodes = [NodeId.directory(2, 1), NodeId.core(0, 0), NodeId.core(3, 1)]
        assert sorted(nodes) == sorted(nodes, key=lambda n: (n.kind, n.index,
                                                             n.host))

    def test_str(self):
        assert str(NodeId.core(7, 2)) == "core7@h2"


class TestMessage:
    def test_uids_unique(self):
        a = Message(NodeId.core(0, 0), NodeId.directory(0, 0), "t", 8)
        b = Message(NodeId.core(0, 0), NodeId.directory(0, 0), "t", 8)
        assert a.uid != b.uid

    def test_defaults(self):
        msg = Message(NodeId.core(0, 0), NodeId.directory(0, 0), "t", 8)
        assert msg.control is True
        assert msg.payload == {}

    def test_str_mentions_route(self):
        msg = Message(NodeId.core(0, 0), NodeId.directory(1, 0), "ack", 16)
        text = str(msg)
        assert "ack" in text and "core0@h0" in text and "dir1@h0" in text
