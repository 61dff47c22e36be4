"""The single source of truth for result verification.

Every search path in the repo ends with the same question: should the
decoded candidates be re-checked against the client's plaintext copy
(the paper's step 5, "verification")?  Before the :mod:`repro.api`
facade existed, each entry point — wire protocol, wildcard
join, batch searcher, sharded serve engine — carried its own
``verify: bool = True`` keyword.  They now all speak
:class:`VerifyPolicy`; plain booleans are still accepted everywhere for
backward compatibility and coerce via :func:`want_verify`.

``AUTO`` is what makes the policy engine-aware: the :mod:`repro.api`
session resolves it against the engine's declared capabilities (verify
where the engine supports it, skip where it cannot), while an explicit
``VERIFY`` on a verification-less engine is a hard
:class:`~repro.api.CapabilityError`.
"""

from __future__ import annotations

import enum
from typing import Union


class VerifyPolicy(enum.Enum):
    """What to do with decoded match candidates."""

    #: Verify where the executing engine supports it (facade default).
    AUTO = "auto"
    #: Always run the verification step; error on engines without one.
    VERIFY = "verify"
    #: Never verify — return raw candidates (may include false
    #: positives from ``requires_verification`` query variants).
    SKIP = "skip"

    @classmethod
    def coerce(cls, value: "VerifyLike") -> "VerifyPolicy":
        """Normalize the legacy ``bool`` spelling (and ``None``)."""
        if value is None:
            return cls.AUTO
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            return cls.VERIFY if value else cls.SKIP
        raise TypeError(f"cannot interpret {value!r} as a VerifyPolicy")

    def resolve(self, engine_can_verify: bool = True) -> bool:
        """Final verify-or-not decision for an engine that declares
        whether it has a verification step."""
        if self is VerifyPolicy.SKIP:
            return False
        if self is VerifyPolicy.AUTO:
            return engine_can_verify
        return True


#: What the public ``verify=`` keywords accept.
VerifyLike = Union[bool, VerifyPolicy, None]


def want_verify(value: VerifyLike) -> bool:
    """Effective verify-or-not for a path that *does* implement
    verification (the CIPHERMATCH engines).  ``AUTO`` therefore means
    "verify".  Non-policy values keep the legacy truthiness semantics
    (``verify=None`` / ``verify=0`` / numpy bools behave exactly as
    they did when the keyword was a plain bool)."""
    if isinstance(value, VerifyPolicy):
        return value.resolve(True)
    return bool(value)
