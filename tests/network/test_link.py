"""Unit tests for link models."""

import random

import pytest

from repro.errors import CommunicationError
from repro.network import DEFAULT_LINKS, LinkModel


def test_no_jitter_latency_is_constant():
    link = LinkModel(latency_seconds=0.01)
    rng = random.Random(1)
    assert link.sample_latency(rng) == 0.01
    assert link.sample_latency(rng) == 0.01


def test_jitter_varies_latency_but_never_negative():
    link = LinkModel(latency_seconds=0.01, jitter_seconds=0.05)
    rng = random.Random(1)
    samples = [link.sample_latency(rng) for _ in range(200)]
    assert len(set(samples)) > 1
    assert all(s >= 0 for s in samples)


def test_loss_rate_zero_never_drops():
    link = LinkModel(latency_seconds=0.01)
    rng = random.Random(1)
    assert not any(link.drops(rng) for _ in range(100))


def test_loss_rate_half_drops_sometimes():
    link = LinkModel(latency_seconds=0.01, loss_rate=0.5)
    rng = random.Random(1)
    outcomes = [link.drops(rng) for _ in range(100)]
    assert any(outcomes) and not all(outcomes)


def test_validation():
    with pytest.raises(CommunicationError):
        LinkModel(latency_seconds=-1)
    with pytest.raises(CommunicationError):
        LinkModel(latency_seconds=0, jitter_seconds=-1)
    with pytest.raises(CommunicationError):
        LinkModel(latency_seconds=0, loss_rate=1.0)


def test_default_links_cover_builtin_types():
    assert set(DEFAULT_LINKS) == {"camera", "sensor", "phone"}
    # The sensor radio is the lossy medium (paper Section 4).
    assert DEFAULT_LINKS["sensor"].loss_rate > 0


@pytest.mark.parametrize("field", ["latency_seconds", "jitter_seconds"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_latency_or_jitter_is_refused(field, value):
    """A NaN latency samples NaN and an infinite jitter samples inf:
    either would reach the kernel as a timer delay."""
    parameters = {"latency_seconds": 0.01, field: value}
    with pytest.raises(CommunicationError, match=field.split("_")[0]):
        LinkModel(**parameters)
