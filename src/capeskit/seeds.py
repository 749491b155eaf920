"""Deterministic 64-bit seed derivation for parallel member generation.

Every ensemble member's random stream is keyed by a seed mixed from the
run's base seed plus role strings and indices, so member (i, j) can be
regenerated in isolation, in any order, on any worker, and match the full
run bit for bit.

Mixing function: each part is canonically encoded (ints as 8-byte
little-endian two's complement, strings as UTF-8), the encodings are
joined with 0x1F separators, and the result is hashed with BLAKE2b to an
8-byte digest read as an unsigned little-endian integer. The scheme is
order-sensitive: mix(s, "init", 3) != mix(s, 3, "init").
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEP = b"\x1f"
_MASK64 = (1 << 64) - 1


def _encode(part) -> bytes:
    if isinstance(part, bool):
        raise TypeError("ambiguous bool seed part; use int 0/1 explicitly")
    if isinstance(part, (int, np.integer)):
        return b"i" + (int(part) & _MASK64).to_bytes(8, "little")
    if isinstance(part, str):
        return b"s" + part.encode("utf-8")
    if isinstance(part, bytes):
        return b"b" + part
    raise TypeError(f"unsupported seed part type {type(part).__name__}")


def mix(base_seed: int, *parts) -> int:
    """Mix a base seed and role parts into an unsigned 64-bit seed."""
    blob = _SEP.join(_encode(p) for p in (base_seed, *parts))
    digest = hashlib.blake2b(blob, digest_size=8).digest()
    return int.from_bytes(digest, "little")
