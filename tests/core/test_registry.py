"""Unit tests for the protocol registry and shared base behaviour."""

import pytest

from repro.core import (
    PAPER_PROTOCOLS,
    PROTOCOLS,
    ReplicaControlProtocol,
    base,
    make_protocol,
    protocol_names,
)
from repro.errors import ProtocolError
from repro.types import site_names


class TestRegistry:
    def test_all_names_construct(self):
        for name in protocol_names():
            protocol = make_protocol(name, site_names(5))
            assert isinstance(protocol, ReplicaControlProtocol)
            assert protocol.name == name
            assert protocol.n_sites == 5

    def test_paper_protocols_subset(self):
        assert set(PAPER_PROTOCOLS) <= set(PROTOCOLS)
        assert PAPER_PROTOCOLS == ("voting", "dynamic", "dynamic-linear", "hybrid")

    def test_unknown_name_rejected_with_options(self):
        with pytest.raises(ProtocolError, match="hybrid"):
            make_protocol("no-such-protocol", site_names(3))


class TestBaseBehaviour:
    def test_order_defaults_to_lexicographic(self):
        protocol = make_protocol("hybrid", ["C", "A", "B"])
        assert protocol.order == ("A", "B", "C")
        assert protocol.greatest({"A", "B"}) == "B"

    def test_custom_order(self):
        protocol = make_protocol("hybrid", ["A", "B", "C"])
        reverse = make_protocol("dynamic-linear", ["A", "B", "C"])
        assert protocol.greatest({"A", "C"}) == "C"
        assert reverse.greatest({"A", "C"}) == "C"

    def test_greatest_of_empty_rejected(self):
        protocol = make_protocol("hybrid", site_names(3))
        with pytest.raises(ProtocolError):
            protocol.greatest([])

    def test_sites_frozen(self):
        protocol = make_protocol("dynamic", site_names(4))
        assert protocol.sites == frozenset("ABCD")

    def test_initial_metadata_version_zero_cardinality_n(self):
        for name in protocol_names():
            meta = make_protocol(name, site_names(6)).initial_metadata()
            assert meta.version == 0
            assert meta.cardinality == 6

    def test_every_protocol_grants_the_full_partition_initially(self):
        for name in protocol_names():
            protocol = make_protocol(name, site_names(5))
            copies = dict.fromkeys(protocol.sites, protocol.initial_metadata())
            assert protocol.is_distinguished(protocol.sites, copies).granted, name

    @pytest.mark.parametrize("name", protocol_names())
    def test_attempt_update_summarises_the_partition_once(self, name, monkeypatch):
        summaries = []
        summary = base.partition_summary

        def counted(copies, partition):
            summaries.append(partition)
            return summary(copies, partition)

        monkeypatch.setattr(base, "partition_summary", counted)
        protocol = make_protocol(name, site_names(5))
        copies = dict.fromkeys(protocol.sites, protocol.initial_metadata())
        assert protocol.attempt_update(protocol.sites, copies).accepted
        assert len(summaries) == 1
        assert not protocol.attempt_update({"A"}, copies).accepted
        assert len(summaries) == 2
