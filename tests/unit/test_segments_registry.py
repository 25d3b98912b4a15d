"""Unit tests for TCP segments and the variant registry."""

import pytest

from repro.transport import (
    DEFAULT_MSS,
    TCP_IP_HEADER_BYTES,
    TcpNewReno,
    TcpSegment,
    known_variants,
    register_variant,
    sender_class,
)


class TestSegments:
    def test_wire_bytes_adds_headers(self):
        seg = TcpSegment("data", sport=1, dport=2, seq=0, payload_bytes=DEFAULT_MSS)
        assert seg.wire_bytes() == 1460 + TCP_IP_HEADER_BYTES == 1500

    def test_pure_ack_is_header_only(self):
        seg = TcpSegment("ack", sport=1, dport=2, ack=5)
        assert seg.wire_bytes() == 40

    def test_kind_predicates(self):
        assert TcpSegment("data", 1, 2).is_data
        assert TcpSegment("ack", 1, 2).is_ack
        assert not TcpSegment("ack", 1, 2).is_data


class TestRegistry:
    def test_all_paper_variants_plus_muzha_registered(self):
        names = known_variants()
        for expected in ("tahoe", "reno", "newreno", "sack", "vegas", "muzha"):
            assert expected in names

    def test_ablation_variant_registered(self):
        assert "muzha-nomark" in known_variants()

    def test_lookup_returns_class(self):
        assert sender_class("newreno") is TcpNewReno

    def test_muzha_lazy_import(self):
        from repro.core import TcpMuzha

        assert sender_class("muzha") is TcpMuzha

    def test_unknown_variant_raises_with_known_list(self):
        with pytest.raises(KeyError) as excinfo:
            sender_class("bbr")
        assert "newreno" in str(excinfo.value)

    def test_register_custom_variant(self, monkeypatch):
        from repro.transport import registry

        # Register into a copy: the CLI's choices and the transcript fence
        # read the registry, and a leaked name would reach both.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

        class Custom(TcpNewReno):
            variant = "custom-test"

        register_variant("custom-test", Custom)
        assert sender_class("custom-test") is Custom
