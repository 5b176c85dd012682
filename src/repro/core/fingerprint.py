"""128-bit structural fingerprints (the model checker's hashing layer).

The explicit-state model checker deduplicates states by a 128-bit
*structural fingerprint* instead of by hashing full state objects.
Following TLC's fingerprinting design (Yu, Manolios, Lamport, "Model
checking TLA+ specifications"), a fingerprint collision silently merges
two distinct states; at 128 bits the collision probability over ``n``
states is about ``n^2 / 2^129`` -- below ``10^-26`` even for a billion
states -- which is the same (documented, measured) trade TLC makes at
64 bits.  Everything outside :mod:`repro.mc` keeps exact equality.

Three primitives live here:

* :func:`canonical_encode` -- a total, type-tagged, *order-insensitive
  for unordered containers* byte serialization.  Two values that
  compare equal encode identically regardless of dict/set insertion
  order, which is what makes fingerprints safe to use as equality
  proxies (``repr``-based hashing has no such guarantee).
* :func:`fp128` -- BLAKE2b-128 of a byte string, as an int (never 0,
  so 0 can serve as the empty-slot sentinel in open-addressing sets).
* The multiset combine: entry fingerprints are combined by *addition
  mod 2^128* (:data:`FP_MASK`), so a container's fingerprint is
  order-independent and can be maintained **incrementally**: adding an
  entry adds its term, removing subtracts it -- O(changed entries)
  instead of O(container).
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Any

#: Fingerprint width: combines are taken mod 2**128.
FP_BITS = 128
FP_MASK = (1 << FP_BITS) - 1


def fp128(data: bytes) -> int:
    """BLAKE2b-128 of ``data`` as a non-zero 128-bit int.

    The zero value is remapped to 1 so that 0 stays available as the
    empty-slot sentinel of :class:`repro.mc.fpset.FingerprintSet`.
    """
    fp = int.from_bytes(blake2b(data, digest_size=16).digest(), "little")
    return fp or 1


def combine(*fps: int) -> int:
    """An order-*sensitive* hash of already-computed fingerprints."""
    return fp128(b"".join(fp.to_bytes(16, "little") for fp in fps))


def canonical_encode(obj: Any) -> bytes:
    """A canonical, type-tagged byte serialization of ``obj``.

    Properties the model checker relies on:

    * **total on the model's value domain**: ints, strs, bytes, bools,
      None, floats, tuples/lists, sets/frozensets, dicts -- nested
      arbitrarily.
    * **canonical**: equal values encode equally.  Unordered containers
      are serialized in sorted-by-encoding order, so dict/set insertion
      order can never leak into a fingerprint (the classic ``repr``
      hashing bug).
    * **prefix-free by construction**: every atom carries a type tag
      and a length, so distinct structures cannot collide by
      concatenation accidents.

    Unknown types fall back to a tagged ``repr`` with the type's
    qualified name, which keeps the encoding total; such values should
    implement stable ``__repr__`` if they participate in state.
    """
    out = bytearray()
    _encode_into(obj, out)
    return bytes(out)


def _encode_into(obj: Any, out: bytearray) -> None:
    # bool must precede int (bool is an int subclass).
    if obj is None:
        out += b"N;"
    elif obj is True:
        out += b"B1;"
    elif obj is False:
        out += b"B0;"
    elif type(obj) is int:
        out += b"I%d;" % obj
    elif type(obj) is str:
        raw = obj.encode("utf-8")
        out += b"S%d:" % len(raw)
        out += raw
    elif type(obj) is bytes:
        out += b"Y%d:" % len(obj)
        out += obj
    elif type(obj) is float:
        out += b"F%s;" % repr(obj).encode("ascii")
    elif type(obj) in (tuple, list):
        out += b"T%d:" % len(obj)
        for item in obj:
            _encode_into(item, out)
    elif type(obj) in (frozenset, set):
        parts = sorted(canonical_encode(item) for item in obj)
        out += b"E%d:" % len(parts)
        for part in parts:
            out += part
    elif type(obj) is dict:
        pairs = sorted(
            (canonical_encode(k), canonical_encode(v)) for k, v in obj.items()
        )
        out += b"D%d:" % len(pairs)
        for key, value in pairs:
            out += key
            out += value
    elif isinstance(obj, int):  # IntEnum, NodeId subtypes, ...
        out += b"I%d;" % int(obj)
    else:
        tag = type(obj).__qualname__.encode("utf-8", "replace")
        raw = repr(obj).encode("utf-8", "replace")
        out += b"R%d:%s%d:" % (len(tag), tag, len(raw))
        out += raw
