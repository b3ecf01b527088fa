"""Tests for the node-level records."""

from __future__ import annotations

from repro.core import NodeData


class TestNodeData:
    def test_commit_promotes(self):
        record = NodeData(1, data=10)
        record.most_recent_data = 42
        record.commit()
        assert record.data == 42

    def test_commit_without_update_keeps_data(self):
        record = NodeData(1, data=10)
        record.commit()
        assert record.data == 10

    def test_repr(self):
        assert "gid=3" in repr(NodeData(3, data=7))

