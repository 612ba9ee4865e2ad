"""Checksum records and verification for payload integrity."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

__all__ = [
    "FixityInfo",
    "FixityVerdict",
    "UnsupportedAlgorithm",
    "compute_fixity",
    "verify_fixity",
]

# algorithm name -> (hashlib constructor, hex digest length)
_ALGORITHMS = {"md5": (hashlib.md5, 32), "sha-256": (hashlib.sha256, 64)}
# [0-9a-f], not \d or str.isdigit: other scripts' digits are no hex
_HEX_RE = re.compile("[0-9a-f]+")


class UnsupportedAlgorithm(ValueError):
    """Verification requested with an algorithm we cannot compute."""


@dataclass(frozen=True)
class FixityInfo:
    """A digest (plus optional byte length) for one payload.

    Unknown algorithms may be recorded but not verified.
    """

    algorithm: str
    digest: str
    length: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", self.algorithm.lower())
        object.__setattr__(self, "digest", self.digest.lower())
        if not _HEX_RE.fullmatch(self.digest):
            raise ValueError(f"digest is not hex: {self.digest!r}")
        known = _ALGORITHMS.get(self.algorithm)
        if known and len(self.digest) != known[1]:
            raise ValueError(
                f"{self.algorithm} digest must be {known[1]} hex chars, "
                f"got {len(self.digest)}"
            )
        if self.length is not None and self.length < 0:
            raise ValueError("length must be non-negative")

    @property
    def token(self) -> str:
        """The wire form, ``algorithm:hexdigest``."""
        return f"{self.algorithm}:{self.digest}"

    @classmethod
    def from_token(cls, token: str, length: int | None = None) -> "FixityInfo":
        """Parse ``algorithm:hexdigest``; a space-separated list picks the
        sha-256 entry if present, else the first."""
        entries = token.split()
        if not entries:
            raise ValueError("empty fixity token")
        chosen = next((e for e in entries if e.startswith("sha-256:")), entries[0])
        algorithm, sep, digest = chosen.partition(":")
        if not sep or not algorithm:
            raise ValueError(f"bad fixity token: {chosen!r}")
        return cls(algorithm=algorithm, digest=digest, length=length)


@dataclass(frozen=True)
class FixityVerdict:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def compute_fixity(
    payload: bytes, algorithm: str = "sha-256", *, with_length: bool = True
) -> FixityInfo:
    try:
        ctor, _ = _ALGORITHMS[algorithm.lower()]
    except KeyError:
        raise UnsupportedAlgorithm(algorithm) from None
    return FixityInfo(
        algorithm=algorithm,
        digest=ctor(payload).hexdigest(),
        length=len(payload) if with_length else None,
    )


def verify_fixity(
    payload: bytes, fixity: FixityInfo, *, sha256: str | None = None
) -> FixityVerdict:
    """Pass iff the digest and, when recorded, the length match.

    ``sha256`` is the payload's SHA-256 hex digest where the caller has
    it already; a sha-256 fixity is then checked against it, not hashed
    again.
    """
    try:
        ctor, _ = _ALGORITHMS[fixity.algorithm]
    except KeyError:
        raise UnsupportedAlgorithm(fixity.algorithm) from None
    if fixity.length is not None and len(payload) != fixity.length:
        return FixityVerdict(False, "length-mismatch")
    if sha256 is not None and fixity.algorithm == "sha-256":
        digest = sha256
    else:
        digest = ctor(payload).hexdigest()
    if digest != fixity.digest:
        return FixityVerdict(False, "digest-mismatch")
    return FixityVerdict(True)
