"""CircuitBreaker state machine, driven by a fake monotonic clock."""

import pytest

from repro.faults import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def breaker(clock):
    return CircuitBreaker(failure_threshold=3, cooldown=5.0, clock=clock)


def test_starts_closed_and_allows(breaker):
    assert breaker.state == CLOSED
    assert breaker.allow()


def test_opens_at_threshold(breaker):
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED and breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert not breaker.allow()
    assert breaker.open_count == 1


def test_success_resets_failure_streak(breaker):
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED


def test_cooldown_half_opens_with_single_probe(breaker, clock):
    for _ in range(3):
        breaker.record_failure()
    clock.advance(4.9)
    assert not breaker.allow()
    clock.advance(0.2)
    assert breaker.state == HALF_OPEN
    assert breaker.allow()  # the one probe
    assert not breaker.allow()  # concurrent callers stay blocked


def test_probe_success_closes(breaker, clock):
    for _ in range(3):
        breaker.record_failure()
    clock.advance(5.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.allow() and breaker.allow()
    assert breaker.open_count == 1


def test_probe_failure_reopens_immediately(breaker, clock):
    for _ in range(3):
        breaker.record_failure()
    clock.advance(5.0)
    assert breaker.allow()
    breaker.record_failure()  # single failure while half-open, below threshold
    assert breaker.state == OPEN
    assert not breaker.allow()
    assert breaker.open_count == 2
    # a second cooldown earns a fresh probe
    clock.advance(5.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CLOSED


def test_open_count_not_bumped_while_already_open(breaker, clock):
    for _ in range(4):
        breaker.record_failure()
    assert breaker.open_count == 1


def test_ctor_validation(clock):
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0, clock=clock)
    with pytest.raises(ValueError):
        CircuitBreaker(cooldown=-1.0, clock=clock)

