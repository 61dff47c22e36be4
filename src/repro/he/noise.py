"""BFV noise analysis: worst-case growth bounds and measured tracking.

The arithmetic prior works are depth-limited ("SHE permits only a finite
number of computations", §2.2); CIPHERMATCH's add-only algorithm is
what sidesteps that.  This module makes the claim quantitative:

* closed-form worst-case noise bounds for fresh encryption, addition,
  plain ops and multiplication (textbook BFV estimates);
* :class:`NoiseBudgetEstimator` — how many of each operation a
  parameter set supports before decryption fails;
* :class:`NoiseTracker` — a wrapper that carries the *measured* noise
  (via the secret key) alongside each operation, used by tests to check
  the bounds actually bound.

The headline numbers the tests pin down: with the paper's parameter set,
Hom-Add supports tens of thousands of sequential additions, while a
single Hom-Mult already costs more budget than thousands of adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bfv import BFVContext, Ciphertext
from .keys import SecretKey
from .params import BFVParams


@dataclass(frozen=True)
class NoiseBounds:
    """Worst-case noise magnitudes (infinity norm) for one parameter set.

    Following the usual textbook estimates with ternary secrets and
    errors of standard deviation ``sigma`` (bounded by ``B = 6 sigma``):
    """

    params: BFVParams

    @property
    def b_err(self) -> float:
        """High-probability bound on one error sample."""
        return 6.0 * self.params.sigma

    @property
    def fresh(self) -> float:
        """Fresh public-key encryption: ``e0 + u*e_pk + e1*s`` with
        ternary ``u``/``s``.  The absolute worst case is
        ``B * (1 + 2n)``, but that exceeds the paper's slim-margin
        parameter set before any operation runs; like SEAL's noise
        estimator we use the high-probability (central-limit) envelope
        ``B * sqrt(2n + 1)``, which the measured-noise tests verify."""
        return self.b_err * math.sqrt(2 * self.params.n + 1)

    @property
    def fresh_symmetric(self) -> float:
        """Fresh secret-key encryption (the key holder's query rows):
        the phase is ``delta * m - e``, one error sample and no
        product, so the bound is :attr:`b_err` itself — no
        ``sqrt(2n + 1)`` factor."""
        return self.b_err

    def after_adds(self, count: int) -> float:
        """Addition is linear: noise grows by at most the sum of the
        operands' noise (a conservative envelope — independent noise
        actually grows with the square root of the count)."""
        return self.fresh * (count + 1)

    def after_plain_mult(self, base: float) -> float:
        """Multiplying by a plaintext polynomial with coefficients < t
        scales noise by at most ``n * t``."""
        return base * self.params.n * self.params.t

    def after_mult(self, base_a: float, base_b: float) -> float:
        """Textbook tensor-and-scale growth: dominated by
        ``(t * n) * (v_a + v_b)`` plus a rounding term."""
        t, n = self.params.t, self.params.n
        return t * n * (base_a + base_b) + t * math.sqrt(n)

    @property
    def failure_threshold(self) -> float:
        """Decryption fails once noise reaches ``delta / 2``."""
        return self.params.delta / 2.0


class NoiseBudgetEstimator:
    """Operation budgets derived from the worst-case bounds."""

    def __init__(self, params: BFVParams):
        self.params = params
        self.bounds = NoiseBounds(params)

    def max_sequential_additions(self) -> int:
        """How many fresh ciphertexts can be summed before failure."""
        per = self.bounds.fresh
        if per == 0:
            return 1 << 62
        return max(int(self.bounds.failure_threshold / per) - 1, 0)

    def max_multiplication_depth(self) -> int:
        """Supported depth of a balanced multiplication tree."""
        level = self.bounds.fresh
        depth = 0
        while True:
            level = self.bounds.after_mult(level, level)
            if level >= self.bounds.failure_threshold:
                return depth
            depth += 1
            if depth > 64:  # parameter set effectively unbounded
                return depth

    def addition_cost_of_one_mult(self) -> float:
        """How many additions one multiplication is 'worth' in budget —
        the quantitative version of Key Takeaway 1."""
        fresh = self.bounds.fresh
        mult_noise = self.bounds.after_mult(fresh, fresh)
        return (mult_noise - fresh) / fresh

    def fresh_budget_bits(self) -> float:
        """Noise budget of a fresh ciphertext in bits."""
        return math.log2(self.bounds.failure_threshold / self.bounds.fresh)


class NoiseTracker:
    """Carries measured noise alongside homomorphic operations.

    Requires the secret key (test/diagnostic use only — a real server
    cannot measure noise).
    """

    def __init__(self, ctx: BFVContext, sk: SecretKey):
        self.ctx = ctx
        self.sk = sk
        self.bounds = NoiseBounds(ctx.params)
        self.history: list[tuple[str, int]] = []

    def measure(self, label: str, ct: Ciphertext) -> int:
        residual = self.ctx.noise_residual(ct, self.sk)
        self.history.append((label, residual))
        return residual

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        out = self.ctx.add(a, b)
        self.measure("add", out)
        return out

    def multiply(self, a: Ciphertext, b: Ciphertext, rlk) -> Ciphertext:
        out = self.ctx.multiply(a, b, rlk)
        self.measure("multiply", out)
        return out

    @property
    def peak(self) -> int:
        return max((r for _, r in self.history), default=0)

    def healthy(self) -> bool:
        """True while every measured residual stays below failure."""
        return self.peak < self.bounds.failure_threshold

    def summary(self) -> str:
        lines = [
            f"{label}: residual={residual} "
            f"({residual / self.bounds.failure_threshold:.1%} of budget)"
            for label, residual in self.history
        ]
        return "\n".join(lines)
