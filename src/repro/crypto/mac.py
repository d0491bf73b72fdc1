"""Message authentication for VPG packets.

A thin wrapper over HMAC-SHA256 truncated to 8 bytes — enough to give the
VPG channel real integrity and sender-authentication semantics (a
receiver rejects tampered or wrong-key packets), which the tests verify.
"""

from __future__ import annotations

import hmac

#: Truncated tag length in bytes.
TAG_SIZE = 8


def compute_tag(key: bytes, data: bytes) -> bytes:
    """An 8-byte authentication tag over ``data``."""
    if not key:
        raise ValueError("key must be non-empty")
    return hmac.digest(key, data, "sha256")[:TAG_SIZE]


def verify_tag(key: bytes, data: bytes, tag: bytes) -> bool:
    """Constant-time verification of an 8-byte tag."""
    if len(tag) != TAG_SIZE:
        return False
    return hmac.compare_digest(compute_tag(key, data), tag)
