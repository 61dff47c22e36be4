"""RetryPolicy / BackoffState: coercion, jitter bounds, determinism."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import BackoffState, RetryPolicy, decorrelated_jitter


class TestCoerce:
    def test_none_and_small_ints_mean_no_retry(self):
        assert RetryPolicy.coerce(None) is None
        assert RetryPolicy.coerce(0) is None
        assert RetryPolicy.coerce(1) is None

    def test_int_becomes_attempt_count(self):
        policy = RetryPolicy.coerce(4)
        assert isinstance(policy, RetryPolicy)
        assert policy.max_attempts == 4

    def test_policy_passes_through(self):
        policy = RetryPolicy(max_attempts=2)
        assert RetryPolicy.coerce(policy) is policy

    def test_bool_and_garbage_rejected(self):
        with pytest.raises(TypeError):
            RetryPolicy.coerce(True)
        with pytest.raises(TypeError):
            RetryPolicy.coerce("3")


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)


class TestBackoff:
    def test_delays_within_bounds_and_deterministic(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.05, max_delay=2.0, seed=7)
        a = [policy.begin().next_delay() for _ in range(1)]
        run1 = policy.begin()
        run2 = policy.begin()
        d1 = [run1.next_delay() for _ in range(7)]
        d2 = [run2.next_delay() for _ in range(7)]
        assert d1 == d2  # seeded policy replays bit-for-bit
        assert all(0.05 <= d <= 2.0 for d in d1 + a)

    def test_seed_override_diverges(self):
        policy = RetryPolicy(max_attempts=5, seed=7)
        d1 = [policy.begin(seed=1).next_delay() for _ in range(3)]
        d2 = [policy.begin(seed=2).next_delay() for _ in range(3)]
        assert d1 != d2


class TestRetryable:
    def test_default_set_used_when_unset(self):
        policy = RetryPolicy()
        assert policy.is_retryable(ConnectionError(), (ConnectionError,))
        assert not policy.is_retryable(ValueError(), (ConnectionError,))
        assert not policy.is_retryable(ConnectionError(), ())

    def test_explicit_set_overrides_default(self):
        policy = RetryPolicy(retryable=(ValueError,))
        assert policy.is_retryable(ValueError(), (ConnectionError,))
        assert not policy.is_retryable(ConnectionError(), (ConnectionError,))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    prev=st.floats(0.0, 10.0),
    base=st.floats(0.001, 1.0),
    cap=st.floats(1.0, 30.0),
)
def test_decorrelated_jitter_bounds(seed, prev, base, cap):
    """Property: every jitter sample lands in [min(base, cap), cap]."""
    delay = decorrelated_jitter(random.Random(seed), prev, base, cap)
    assert min(base, cap) <= delay <= cap


def test_backoff_delays_never_exceed_cap_over_long_runs():
    policy = RetryPolicy(max_attempts=64, base_delay=0.01, max_delay=0.5, seed=3)
    state = BackoffState(policy)
    for _ in range(63):
        assert 0.01 <= state.next_delay() <= 0.5
