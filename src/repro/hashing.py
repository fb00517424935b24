"""Shared content-address key derivation (BLAKE2b).

Two subsystems address work by content rather than by position:

* dictionary **sharding** (:mod:`repro.testgen.sharding`) assigns each
  fault to a shard by hashing its stable ``fault_id``, so the partition
  never depends on enumeration order, worker count or hash
  randomization;
* the serving **verdict cache** (:mod:`repro.serve.cache`) stores each
  screened verdict under a digest of everything the verdict is a pure
  function of — the netlist, the configuration, the fault, the stimulus
  vector and the tolerance box.

Both derivations live here so they can never drift apart.  Everything
is BLAKE2b (``hashlib`` — unaffected by ``PYTHONHASHSEED``) over UTF-8
canonical strings.  Floats are serialized with :func:`repr`, which in
Python 3 is the shortest string that round-trips bitwise, so two
vectors hash equal *iff* they are bitwise equal.

Compatibility contract: :func:`stable_index` reproduces the exact
digests :func:`repro.testgen.sharding.shard_index` has emitted since
PR 5 (``digest_size=8``, big-endian, modulo) — the sharding determinism
suite pins this.
"""

from __future__ import annotations

from collections.abc import Iterable
from hashlib import blake2b

__all__ = [
    "FIELD_SEPARATOR",
    "attribute_signature",
    "content_digest",
    "float_token",
    "floats_token",
    "netlist_digest",
    "stable_digest",
    "stable_index",
    "verdict_key",
]

#: ASCII unit separator — joins key fields unambiguously (never appears
#: in identifiers, netlist cards or ``repr`` of a float).
FIELD_SEPARATOR = "\x1f"


def stable_digest(text: str, *, digest_size: int = 8) -> bytes:
    """BLAKE2b digest of one UTF-8 string (process/seed independent)."""
    return blake2b(text.encode("utf-8"), digest_size=digest_size).digest()


def stable_index(text: str, n: int) -> int:
    """Deterministic bucket of *text* among ``n`` buckets.

    This is the PR 5 shard assignment: ``digest_size=8`` BLAKE2b of the
    string, big-endian integer, modulo ``n``.  Stable across processes,
    machines and Python hash seeds.
    """
    if n < 1:
        raise ValueError(f"bucket count must be >= 1, got {n}")
    return int.from_bytes(stable_digest(text), "big") % n


def float_token(value: float) -> str:
    """Canonical token for one float (``repr`` round-trips bitwise)."""
    return repr(float(value))


def floats_token(values: Iterable[float]) -> str:
    """Canonical comma-joined token for a float sequence."""
    return ",".join(float_token(v) for v in values)


def content_digest(fields: Iterable[str], *, digest_size: int = 16) -> str:
    """Hex digest of several string fields, separator-joined.

    The unit separator keeps field boundaries unambiguous: ``("ab",
    "c")`` and ``("a", "bc")`` hash differently.
    """
    payload = FIELD_SEPARATOR.join(fields)
    return blake2b(payload.encode("utf-8"),
                   digest_size=digest_size).hexdigest()


def attribute_signature(obj) -> str:
    """Class name plus every plain instance attribute, ``|``-joined.

    Attributes are sorted by name and serialized with :func:`repr`, so
    two objects of one class sign equal exactly when their state
    (sources, probes, modes, sample rates, ...) is equal.
    """
    state = getattr(obj, "__dict__", {})
    return "|".join([type(obj).__name__,
                     *(f"{attr}={state[attr]!r}" for attr in sorted(state))])


def netlist_digest(netlist: str) -> str:
    """Content address of a serialized netlist (see ``Circuit.to_netlist``)."""
    return content_digest(("netlist", netlist))


def verdict_key(*, netlist: str, configuration: str, fault_id: str,
                vector: Iterable[float], boxes: Iterable[float]) -> str:
    """Content address of one screening verdict.

    A screened verdict is a pure function of exactly these inputs (the
    canonical-mode contract proven by the serving equivalence suite):
    the nominal netlist digest, the test-configuration name (name-based
    identity, as in the executor caches), the fault id, the clipped
    stimulus vector and the tolerance box half-widths.  Anything equal
    under this key may be served from cache bitwise.

    Args:
        netlist: digest from :func:`netlist_digest` (or any stable
            content address of the nominal circuit).
        configuration: test-configuration name.
        fault_id: stable fault identifier.
        vector: clipped test-parameter values.
        boxes: tolerance box half-widths (spread + equipment).
    """
    return content_digest((
        "verdict",
        netlist,
        configuration,
        fault_id,
        floats_token(vector),
        floats_token(boxes),
    ))
