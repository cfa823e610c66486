"""Packet crafting: flow keys materialized as concrete wire packets.

The :class:`PacketBuilder` converts :class:`~repro.packet.fields.FlowKey`
objects (ICMP ones included) into concrete packets — used when replaying
adversarial traces through the simulated switch as real wire packets — and
adds the "random noise on unimportant header fields" the paper uses to
exhaust the microflow cache.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PacketError
from repro.packet.fields import FlowKey
from repro.packet.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ICMP,
    IPv4,
    IPv6,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP,
    UDP,
    Ethernet,
)
from repro.packet.packet import Packet

__all__ = ["PacketBuilder", "DEFAULT_ETH_SRC", "DEFAULT_ETH_DST"]

#: MACs a packet carries where its flow key leaves them zero.
DEFAULT_ETH_SRC = 0x020000000001
DEFAULT_ETH_DST = 0x020000000002
#: Bytes of random payload on a noisy packet (the minimal Ethernet payload).
_NOISE_PAYLOAD_LEN = 46


class PacketBuilder:
    """Craft concrete packets, with deterministic random noise.

    The noise RNG is seeded with 0, so a fresh builder crafts the same
    bytes for the same keys every time.
    """

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)

    def from_flow_key(self, key: FlowKey, noise: bool = False) -> Packet:
        """Materialize a concrete packet realizing ``key``.

        Fields the flow key leaves at zero stay zero (they are *values*, not
        wildcards — a FlowKey is always concrete).  ``noise`` draws a random
        TTL, then a random 46-byte payload: fields the paper calls
        unimportant (§5.2), which the exact-match microflow cache sees and
        megaflows do not, so the classification-relevant part of the key is
        preserved exactly.
        """
        ttl = key["ip_ttl"] or 64
        tos = key["ip_tos"]
        payload = b""
        if noise:
            ttl = int(self._rng.integers(2, 255))
            payload = self._rng.bytes(_NOISE_PAYLOAD_LEN)

        eth = Ethernet(
            src=key["eth_src"] or DEFAULT_ETH_SRC,
            dst=key["eth_dst"] or DEFAULT_ETH_DST,
            ethertype=key["eth_type"] or ETHERTYPE_IPV4,
        )
        proto = key["ip_proto"] or PROTO_TCP

        ip_layer: IPv4 | IPv6
        if eth.ethertype == ETHERTYPE_IPV6 or key["ipv6_src"] or key["ipv6_dst"]:
            eth.ethertype = ETHERTYPE_IPV6
            ip_layer = IPv6(
                src=key["ipv6_src"],
                dst=key["ipv6_dst"],
                next_header=proto,
                hop_limit=ttl,
                traffic_class=tos,
            )
        else:
            ip_layer = IPv4(src=key["ip_src"], dst=key["ip_dst"], proto=proto, ttl=ttl, tos=tos)

        layers: list = [eth, ip_layer]
        if proto == PROTO_TCP:
            layers.append(TCP(src_port=key["tp_src"], dst_port=key["tp_dst"]))
        elif proto == PROTO_UDP:
            layers.append(UDP(src_port=key["tp_src"], dst_port=key["tp_dst"]))
        elif proto == PROTO_ICMP:
            layers.append(ICMP(icmp_type=key["tp_src"] & 0xFF, code=key["tp_dst"] & 0xFF))
        else:
            raise PacketError(f"cannot materialize packet for ip_proto={proto}")
        return Packet(layers=layers, payload=payload)
