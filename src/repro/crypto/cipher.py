"""A keystream cipher over SHAKE-256.

The ADF's VPGs used hardware 3DES on the NIC.  Re-implementing 3DES
bit-exactly would add nothing to the reproduction (the *cost* of the
cryptography is modelled separately, in simulated time, by the ADF NIC's
cost model); what matters is that the VPG data path performs a *real*
key-dependent, invertible transformation with integrity protection, so
that tests can verify confidentiality/integrity semantics end-to-end.

The plaintext is PKCS#7-padded to an 8-byte block, as a 64-bit block
cipher would pad it, so a ciphertext is exactly as long as 3DES-CBC
would make it and every VPG packet keeps its wire size.  The padded
bytes are XORed with a SHAKE-256 keystream of the same length, keyed by
the key and a 64-bit per-packet nonce: one C-speed ``hashlib`` call per
packet.  A keystream must never reuse a (key, nonce) pair, so callers
bind the nonce to the sender as well as the packet (see
:mod:`repro.crypto.vpg`).  It is a simulator stand-in, not a vetted
construction — see the module-level warning in :mod:`repro.crypto`.
"""

from __future__ import annotations

import hashlib

BLOCK_SIZE = 8

#: PKCS#7 padding by length: ``_PADDING[n]`` is ``n`` bytes of value ``n``.
_PADDING = tuple(bytes([length]) * length for length in range(BLOCK_SIZE + 1))


class KeystreamCipher:
    """PKCS#7 padding XORed with a SHAKE-256 (key, nonce) keystream."""

    def __init__(self, key: bytes):
        if not key:
            raise ValueError("key must be non-empty")
        self.key = bytes(key)
        # The keyed prefix state, copied per packet instead of rehashed.
        self._keyed = hashlib.shake_256(self.key)

    def _xor_keystream(self, data: bytes, nonce: int) -> bytes:
        length = len(data)
        xof = self._keyed.copy()
        xof.update(nonce.to_bytes(8, "big"))
        stream = int.from_bytes(xof.digest(length), "big")
        return (int.from_bytes(data, "big") ^ stream).to_bytes(length, "big")

    def encrypt(self, plaintext: bytes, nonce: int = 0) -> bytes:
        """Pad and encrypt under a 64-bit ``nonce``; the result is a
        positive block multiple."""
        padded = plaintext + _PADDING[BLOCK_SIZE - len(plaintext) % BLOCK_SIZE]
        return self._xor_keystream(padded, nonce)

    def decrypt(self, ciphertext: bytes, nonce: int = 0) -> bytes:
        """Decrypt and strip padding; raises ValueError on bad input."""
        if len(ciphertext) == 0 or len(ciphertext) % BLOCK_SIZE:
            raise ValueError("ciphertext length must be a positive block multiple")
        padded = self._xor_keystream(ciphertext, nonce)
        pad_len = padded[-1]
        if not 0 < pad_len <= BLOCK_SIZE or padded[-pad_len:] != _PADDING[pad_len]:
            raise ValueError("invalid padding")
        return padded[:-pad_len]
