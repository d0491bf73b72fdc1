"""Cryptographic substrate for Virtual Private Groups.

.. warning::
   The cipher here is a SHAKE-256 keystream standing in for the ADF's
   hardware 3DES, padded to 3DES's 8-byte block so every ciphertext keeps
   3DES's length.  It genuinely transforms and authenticates bytes — so
   the VPG data path, lazy-decryption control flow, and tamper-rejection
   semantics are real — but it is an unreviewed construction with
   deterministic nonces and must never be used outside this simulator.
"""

from repro.crypto.cipher import BLOCK_SIZE, KeystreamCipher
from repro.crypto.keys import KEY_SIZE, VpgKeyStore
from repro.crypto.mac import TAG_SIZE, compute_tag, verify_tag
from repro.crypto.vpg import (
    VpgAuthError,
    VpgContext,
    VpgDecodeError,
    VpgError,
    VpgSealedPayload,
)

__all__ = [
    "BLOCK_SIZE",
    "KEY_SIZE",
    "KeystreamCipher",
    "TAG_SIZE",
    "VpgAuthError",
    "VpgContext",
    "VpgDecodeError",
    "VpgError",
    "VpgKeyStore",
    "VpgSealedPayload",
    "compute_tag",
    "verify_tag",
]
