"""Layered packets: header stacks and wire serialization.

A :class:`Packet` is an ordered stack of header objects (from
:mod:`repro.packet.headers`) plus an opaque payload.  It can be serialized to
wire bytes (with checksums).  Parsing bytes back into a packet, and the
OVS-style flow-key extraction, are the read-back side the tests check the
wire format with (``tests/packet_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from repro.exceptions import PacketError
from repro.packet.headers import (
    ICMP,
    IPv4,
    IPv6,
    PROTO_TCP,
    PROTO_UDP,
    TCP,
    UDP,
    Ethernet,
    _pseudo_header_v4,
    _pseudo_header_v6,
)

__all__ = ["Packet"]

Header = Ethernet | IPv4 | IPv6 | TCP | UDP | ICMP


@dataclass
class Packet:
    """An ordered header stack plus payload.

    Layers must be given outermost-first (Ethernet, then IP, then L4); the
    constructor validates the ordering so a malformed stack fails fast
    rather than producing bytes no parser would accept.
    """

    layers: list[Header] = dc_field(default_factory=list)
    payload: bytes = b""

    def __post_init__(self) -> None:
        self._validate_stack()

    def _validate_stack(self) -> None:
        allowed_next = {
            Ethernet: (IPv4, IPv6),
            IPv4: (TCP, UDP, ICMP),
            IPv6: (TCP, UDP, ICMP),
            TCP: (),
            UDP: (),
            ICMP: (),
        }
        previous: type | None = None
        for layer in self.layers:
            if type(layer) not in allowed_next:
                raise PacketError(f"unsupported layer type {type(layer).__name__}")
            if previous is not None and type(layer) not in allowed_next[previous]:
                raise PacketError(
                    f"{type(layer).__name__} cannot follow {previous.__name__}"
                )
            previous = type(layer)

    # -- layer access ---------------------------------------------------------
    def layer(self, layer_type: type) -> Header | None:
        """The first layer of the given type, or ``None``."""
        for layer in self.layers:
            if isinstance(layer, layer_type):
                return layer
        return None

    @property
    def eth(self) -> Ethernet | None:
        return self.layer(Ethernet)  # type: ignore[return-value]

    @property
    def ip(self) -> IPv4 | None:
        return self.layer(IPv4)  # type: ignore[return-value]

    @property
    def ip6(self) -> IPv6 | None:
        return self.layer(IPv6)  # type: ignore[return-value]

    @property
    def tcp(self) -> TCP | None:
        return self.layer(TCP)  # type: ignore[return-value]

    @property
    def udp(self) -> UDP | None:
        return self.layer(UDP)  # type: ignore[return-value]

    # -- serialization --------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to wire bytes, filling lengths and checksums."""
        # Serialize innermost-first so outer layers know payload lengths.
        data = self.payload
        ip_layer = self.ip or self.ip6
        for layer in reversed(self.layers):
            if isinstance(layer, TCP):
                pseudo = self._pseudo_header(ip_layer, PROTO_TCP, TCP.HEADER_LEN + len(data))
                data = layer.pack(payload=data, pseudo_header=pseudo) + data
            elif isinstance(layer, UDP):
                pseudo = self._pseudo_header(ip_layer, PROTO_UDP, UDP.HEADER_LEN + len(data))
                data = layer.pack(payload=data, pseudo_header=pseudo) + data
            elif isinstance(layer, ICMP):
                data = layer.pack(payload=data) + data
            elif isinstance(layer, (IPv4, IPv6)):
                data = layer.pack(payload_len=len(data)) + data
            elif isinstance(layer, Ethernet):
                data = layer.pack() + data
        return data

    @staticmethod
    def _pseudo_header(ip_layer: IPv4 | IPv6 | None, proto: int, length: int) -> bytes | None:
        if isinstance(ip_layer, IPv4):
            return _pseudo_header_v4(ip_layer.src, ip_layer.dst, proto, length)
        if isinstance(ip_layer, IPv6):
            return _pseudo_header_v6(ip_layer.src, ip_layer.dst, proto, length)
        return None

    def __repr__(self) -> str:
        names = "/".join(type(layer).__name__ for layer in self.layers)
        return f"Packet({names}, payload={len(self.payload)}B)"
