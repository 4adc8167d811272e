"""Unit tests for the star network's link cost model."""

import pytest

from repro.distributed.messages import COORDINATOR, control_message
from repro.distributed.network import LinkModel


class TestLinkModel:
    def test_empty_phase_costs_nothing(self):
        assert LinkModel().transfer_seconds([]) == 0.0

    def test_single_message(self):
        link = LinkModel(bandwidth=1000.0, latency=0.5)
        message = control_message(COORDINATOR, 0, 0)
        expected = 0.5 + message.total_bytes / 1000.0
        assert link.transfer_seconds([message]) == pytest.approx(expected)

    def test_shared_link_serializes_payloads(self):
        link = LinkModel(bandwidth=1000.0, latency=0.0)
        messages = [control_message(COORDINATOR, site, 0)
                    for site in range(4)]
        total_bytes = sum(m.total_bytes for m in messages)
        assert link.transfer_seconds(messages) == \
            pytest.approx(total_bytes / 1000.0)
