"""Bounded retry with decorrelated-jitter exponential backoff.

The policy is a frozen value object so one instance can be shared by
every connection in a client pool; per-request mutable state lives in
:class:`BackoffState`.  Delays follow the AWS "decorrelated jitter"
recipe — ``delay = min(cap, uniform(base, prev * 3))`` — which spreads
retry storms without the synchronized thundering herd plain
exponential backoff produces.

``retryable`` is a tuple of exception types; ``None`` means "use the
caller's default set" (the net client retries connection loss, sheds,
admission rejections, and corrupt frames — all idempotent to resend
because the request id is reused across attempts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple, Union

RetryLike = Union[None, int, "RetryPolicy"]


def decorrelated_jitter(
    rng: random.Random, prev: float, base: float, cap: float
) -> float:
    """One decorrelated-jitter delay: ``min(cap, uniform(base, prev*3))``."""
    return min(cap, rng.uniform(base, max(base, prev * 3)))


class BackoffState:
    """Mutable per-request backoff cursor over a :class:`RetryPolicy`."""

    def __init__(self, policy: "RetryPolicy", *, seed: Optional[int] = None):
        self.policy = policy
        self.attempt = 0
        self._prev = policy.base_delay
        self._rng = random.Random(policy.seed if seed is None else seed)

    def next_delay(self) -> float:
        """Advance one attempt and return the sleep before the next."""
        self.attempt += 1
        self._prev = decorrelated_jitter(
            self._rng, self._prev, self.policy.base_delay, self.policy.max_delay
        )
        return self._prev


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries: at most ``max_attempts`` total tries per
    request, decorrelated-jitter sleeps in ``[base_delay, max_delay]``
    between them.  ``seed`` pins the jitter for deterministic replays;
    ``retryable`` overrides the caller's default retryable exception
    set."""

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: Optional[int] = None
    retryable: Optional[Tuple[type, ...]] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay <= 0:
            raise ValueError("base_delay must be > 0")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")

    @classmethod
    def coerce(cls, value: RetryLike) -> Optional["RetryPolicy"]:
        """``None`` → no retries, an int → that many total attempts,
        a policy → itself."""
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):  # bool is an int; reject explicitly
            raise TypeError("retry must be None, an attempt count, or a RetryPolicy")
        if isinstance(value, int):
            if value <= 1:
                return None
            return cls(max_attempts=value)
        raise TypeError(
            f"retry must be None, an attempt count, or a RetryPolicy, got {value!r}"
        )

    def is_retryable(
        self, exc: BaseException, default: Tuple[type, ...] = ()
    ) -> bool:
        classes = self.retryable if self.retryable is not None else default
        return isinstance(exc, tuple(classes)) if classes else False

    def begin(self, *, seed: Optional[int] = None) -> BackoffState:
        return BackoffState(self, seed=seed)
