"""ECMP hashing with the hash-linearity property.

Commodity switching ASICs hash a flow's five-tuple to pick among
equal-cost next hops.  The paper's optimized ECMP (§2.1 footnote 1)
exploits *hash linearity* [50, 51]: for CRC-style hashes,
``H(x ^ d) == H(x) ^ H0(d)`` for a fixed-length perturbation ``d``, so a
sender can steer a flow onto a chosen path index purely by picking its
UDP source port.  This module provides:

* :class:`FiveTuple` — the flow key shared with the monitoring system
  (it is the join key between QP metadata and network-layer telemetry).
* :func:`crc16` — CRC-16/CCITT, linear over GF(2).
* :class:`EcmpHasher` — per-switch hash that maps a five-tuple to an
  index among ``n`` candidate next hops.  All switches in a fabric
  share one hash function by default, which is precisely what produces
  the hash polarization the paper observes on multi-hop paths.  The
  hash is defined in two steps, so a path walk computes the
  five-tuple's CRC once and continues it at each hop.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass, replace
from typing import Iterable

__all__ = ["FiveTuple", "crc16", "EcmpHasher"]


def crc16(data: bytes, seed: int = 0) -> int:
    """CRC-16/CCITT (polynomial 0x1021, non-reflected), computed in C by
    :func:`binascii.crc_hqx`.  Linear over GF(2) in the message bits;
    value-identical to the bitwise definition (8 shift/xor steps per
    byte)."""
    return binascii.crc_hqx(data, seed & 0xFFFF)


@dataclass(frozen=True)
class FiveTuple:
    """RoCEv2 flow key: (src ip, dst ip, src port, dst port, protocol).

    In production the IPs identify NIC ports; here they are the device
    names, which the monitoring layers use as join keys all the same.
    """

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int = 4791  # RoCEv2 UDP destination port
    protocol: int = 17    # UDP

    def with_src_port(self, port: int) -> "FiveTuple":
        if not 0 <= port <= 0xFFFF:
            raise ValueError(f"port out of range: {port}")
        return replace(self, src_port=port)

    def pack(self) -> bytes:
        """Serialize for hashing. Stable across runs (no PYTHONHASHSEED)."""
        return b"|".join((
            self.src_ip.encode(),
            self.dst_ip.encode(),
            self.src_port.to_bytes(2, "big"),
            self.dst_port.to_bytes(2, "big"),
            bytes([self.protocol]),
        ))


class EcmpHasher:
    """Hash a flow onto one of ``n`` equal-cost next hops.

    ``per_device_salt`` models the per-switch hash seed commodity ASICs
    expose: every hop folds its device identity into the hash, so
    consecutive hops make (statistically) independent choices.  With the
    salt *disabled*, every switch computes the identical hash value and
    ECMP degenerates — ``h % 2 == 0`` at one tier forces ``h % 4`` into
    ``{0, 2}`` at the next — which is exactly the *hash polarization*
    pathology the paper's architecture principles aim to limit; the
    disabled mode exists for that ablation.
    """

    def __init__(self, seed: int = 0, per_device_salt: bool = True):
        self.seed = seed
        self.per_device_salt = per_device_salt

    @staticmethod
    def salt_bytes(device: str) -> bytes:
        """The bytes a hop at *device* appends to the packed five-tuple
        (none for an empty name)."""
        return b"@" + device.encode() if device else b""

    def flow_hash(self, flow: FiveTuple) -> int:
        """The first step of every hop's hash: the CRC of the packed
        five-tuple, computed once per flow."""
        return crc16(flow.pack(), seed=self.seed)

    def hop_hash(self, flow_hash: int, salt: bytes) -> int:
        """The second step: continue *flow_hash* over a hop's
        :meth:`salt_bytes`.  A CRC continues from its previous value,
        ``crc(a + b, s) == crc(b, crc(a, s))``, so this is the CRC of
        the five-tuple and the salt together.  With the salt off, every
        hop's hash is the flow's."""
        if not self.per_device_salt:
            return flow_hash
        return crc16(salt, seed=flow_hash)

    def hash(self, flow: FiveTuple, salt: str = "") -> int:
        return self.hop_hash(self.flow_hash(flow), self.salt_bytes(salt))

    def select(self, flow: FiveTuple, n_choices: int,
               salt: str = "") -> int:
        if n_choices <= 0:
            raise ValueError("no next hops to select among")
        return self.hash(flow, salt=salt) % n_choices

    def port_for_index(self, flow: FiveTuple, n_choices: int,
                       target_index: int,
                       candidate_ports: Iterable[int] | None = None,
                       salt: str = "") -> int:
        """Find a UDP source port steering *flow* to *target_index*.

        This is the sender-side half of the optimized ECMP scheme: the
        hash is simulated for candidate ports until one lands on the
        desired index.  With a 16-bit CRC and small ``n_choices`` this
        terminates almost immediately.
        """
        if not 0 <= target_index < n_choices:
            raise ValueError(
                f"target index {target_index} out of range 0..{n_choices-1}")
        ports = candidate_ports if candidate_ports is not None \
            else range(49152, 65536)
        for port in ports:
            if self.select(flow.with_src_port(port), n_choices,
                           salt=salt) == target_index:
                return port
        raise ValueError(
            f"no candidate source port reaches index {target_index}")
