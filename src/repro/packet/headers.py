"""Wire-format protocol headers (Ethernet, IPv4, IPv6, TCP, UDP, ICMP).

This is the packet-crafting substrate the paper used Scapy for: each header
is a dataclass that can ``pack()`` itself to wire bytes and ``unpack()``
itself from bytes, with real Internet checksums.  The attack tooling crafts
packets with these headers and can export them to pcap for replay
(:mod:`repro.packet.pcap`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketError

__all__ = [
    "ETHERTYPE_IPV4",
    "ETHERTYPE_IPV6",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "internet_checksum",
    "Ethernet",
    "IPv4",
    "IPv6",
    "TCP",
    "UDP",
    "ICMP",
]

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


def internet_checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum over ``data`` (padded to 16-bit words)."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _check_range(name: str, value: int, width: int) -> None:
    if value < 0 or value >= (1 << width):
        raise PacketError(f"{name}={value:#x} does not fit in {width} bits")


@dataclass
class Ethernet:
    """Ethernet II header (14 bytes)."""

    dst: int = 0
    src: int = 0
    ethertype: int = ETHERTYPE_IPV4

    HEADER_LEN = 14

    def pack(self) -> bytes:
        _check_range("eth_dst", self.dst, 48)
        _check_range("eth_src", self.src, 48)
        _check_range("eth_type", self.ethertype, 16)
        return (
            self.dst.to_bytes(6, "big")
            + self.src.to_bytes(6, "big")
            + struct.pack("!H", self.ethertype)
        )

    @classmethod
    def unpack(cls, data: bytes) -> tuple["Ethernet", bytes]:
        """Parse one Ethernet header; return (header, remaining bytes)."""
        if len(data) < cls.HEADER_LEN:
            raise PacketError(f"Ethernet header truncated: {len(data)} bytes")
        dst = int.from_bytes(data[0:6], "big")
        src = int.from_bytes(data[6:12], "big")
        (ethertype,) = struct.unpack("!H", data[12:14])
        return cls(dst=dst, src=src, ethertype=ethertype), data[14:]


@dataclass
class IPv4:
    """IPv4 header (20 bytes; options unsupported on purpose).

    ``total_length`` and ``checksum`` are computed at :meth:`pack` time when
    left at zero, which is the common crafting pattern.
    """

    src: int = 0
    dst: int = 0
    proto: int = PROTO_TCP
    ttl: int = 64
    tos: int = 0
    ident: int = 0
    flags: int = 0  # 3 bits: reserved/DF/MF
    frag_offset: int = 0
    total_length: int = 0
    checksum: int = 0

    HEADER_LEN = 20

    def pack(self, payload_len: int = 0) -> bytes:
        _check_range("ip_src", self.src, 32)
        _check_range("ip_dst", self.dst, 32)
        _check_range("ip_proto", self.proto, 8)
        _check_range("ip_ttl", self.ttl, 8)
        _check_range("ip_tos", self.tos, 8)
        _check_range("ip_ident", self.ident, 16)
        _check_range("ip_flags", self.flags, 3)
        _check_range("ip_frag_offset", self.frag_offset, 13)
        total_length = self.total_length or (self.HEADER_LEN + payload_len)
        _check_range("ip_total_length", total_length, 16)
        version_ihl = (4 << 4) | 5
        flags_frag = (self.flags << 13) | self.frag_offset
        header = struct.pack(
            "!BBHHHBBH4s4s",
            version_ihl,
            self.tos,
            total_length,
            self.ident,
            flags_frag,
            self.ttl,
            self.proto,
            0,
            self.src.to_bytes(4, "big"),
            self.dst.to_bytes(4, "big"),
        )
        checksum = self.checksum or internet_checksum(header)
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    @classmethod
    def unpack(cls, data: bytes) -> tuple["IPv4", bytes]:
        """Parse one IPv4 header; return (header, remaining bytes)."""
        if len(data) < cls.HEADER_LEN:
            raise PacketError(f"IPv4 header truncated: {len(data)} bytes")
        (
            version_ihl,
            tos,
            total_length,
            ident,
            flags_frag,
            ttl,
            proto,
            checksum,
            src,
            dst,
        ) = struct.unpack("!BBHHHBBH4s4s", data[:20])
        version = version_ihl >> 4
        if version != 4:
            raise PacketError(f"IPv4 header has version {version}")
        ihl = (version_ihl & 0xF) * 4
        if ihl < 20 or len(data) < ihl:
            raise PacketError(f"IPv4 header has bad IHL {ihl}")
        header = cls(
            src=int.from_bytes(src, "big"),
            dst=int.from_bytes(dst, "big"),
            proto=proto,
            ttl=ttl,
            tos=tos,
            ident=ident,
            flags=flags_frag >> 13,
            frag_offset=flags_frag & 0x1FFF,
            total_length=total_length,
            checksum=checksum,
        )
        return header, data[ihl:]


@dataclass
class IPv6:
    """IPv6 fixed header (40 bytes)."""

    src: int = 0
    dst: int = 0
    next_header: int = PROTO_TCP
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0
    payload_length: int = 0

    HEADER_LEN = 40

    def pack(self, payload_len: int = 0) -> bytes:
        _check_range("ipv6_src", self.src, 128)
        _check_range("ipv6_dst", self.dst, 128)
        _check_range("ipv6_next_header", self.next_header, 8)
        _check_range("ipv6_hop_limit", self.hop_limit, 8)
        _check_range("ipv6_traffic_class", self.traffic_class, 8)
        _check_range("ipv6_flow_label", self.flow_label, 20)
        payload_length = self.payload_length or payload_len
        _check_range("ipv6_payload_length", payload_length, 16)
        first_word = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        return (
            struct.pack("!IHBB", first_word, payload_length, self.next_header, self.hop_limit)
            + self.src.to_bytes(16, "big")
            + self.dst.to_bytes(16, "big")
        )

    @classmethod
    def unpack(cls, data: bytes) -> tuple["IPv6", bytes]:
        """Parse one IPv6 header; return (header, remaining bytes)."""
        if len(data) < cls.HEADER_LEN:
            raise PacketError(f"IPv6 header truncated: {len(data)} bytes")
        first_word, payload_length, next_header, hop_limit = struct.unpack("!IHBB", data[:8])
        version = first_word >> 28
        if version != 6:
            raise PacketError(f"IPv6 header has version {version}")
        header = cls(
            src=int.from_bytes(data[8:24], "big"),
            dst=int.from_bytes(data[24:40], "big"),
            next_header=next_header,
            hop_limit=hop_limit,
            traffic_class=(first_word >> 20) & 0xFF,
            flow_label=first_word & 0xFFFFF,
            payload_length=payload_length,
        )
        return header, data[40:]


def _pseudo_header_v4(src: int, dst: int, proto: int, length: int) -> bytes:
    return src.to_bytes(4, "big") + dst.to_bytes(4, "big") + struct.pack("!BBH", 0, proto, length)


def _pseudo_header_v6(src: int, dst: int, proto: int, length: int) -> bytes:
    return (
        src.to_bytes(16, "big")
        + dst.to_bytes(16, "big")
        + struct.pack("!IHBB", length, 0, 0, proto)
    )


@dataclass
class TCP:
    """TCP header (20 bytes, no options)."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = 0x02  # SYN by default: attack packets open "new flows"
    window: int = 65535
    checksum: int = 0
    urgent: int = 0

    HEADER_LEN = 20
    FLAG_FIN = 0x01
    FLAG_SYN = 0x02
    FLAG_RST = 0x04
    FLAG_PSH = 0x08
    FLAG_ACK = 0x10

    def pack(self, payload: bytes = b"", pseudo_header: bytes | None = None) -> bytes:
        _check_range("tp_src", self.src_port, 16)
        _check_range("tp_dst", self.dst_port, 16)
        _check_range("tcp_seq", self.seq, 32)
        _check_range("tcp_ack", self.ack, 32)
        _check_range("tcp_flags", self.flags, 9)
        _check_range("tcp_window", self.window, 16)
        offset_flags = (5 << 12) | self.flags
        header = struct.pack(
            "!HHIIHHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            offset_flags,
            self.window,
            0,
            self.urgent,
        )
        checksum = self.checksum
        if not checksum and pseudo_header is not None:
            checksum = internet_checksum(pseudo_header + header + payload)
        return header[:16] + struct.pack("!H", checksum) + header[18:]

    @classmethod
    def unpack(cls, data: bytes) -> tuple["TCP", bytes]:
        """Parse one TCP header; return (header, remaining bytes)."""
        if len(data) < cls.HEADER_LEN:
            raise PacketError(f"TCP header truncated: {len(data)} bytes")
        src_port, dst_port, seq, ack, offset_flags, window, checksum, urgent = struct.unpack(
            "!HHIIHHHH", data[:20]
        )
        offset = (offset_flags >> 12) * 4
        if offset < 20 or len(data) < offset:
            raise PacketError(f"TCP header has bad data offset {offset}")
        header = cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=offset_flags & 0x1FF,
            window=window,
            checksum=checksum,
            urgent=urgent,
        )
        return header, data[offset:]


@dataclass
class UDP:
    """UDP header (8 bytes)."""

    src_port: int = 0
    dst_port: int = 0
    length: int = 0
    checksum: int = 0

    HEADER_LEN = 8

    def pack(self, payload: bytes = b"", pseudo_header: bytes | None = None) -> bytes:
        _check_range("tp_src", self.src_port, 16)
        _check_range("tp_dst", self.dst_port, 16)
        length = self.length or (self.HEADER_LEN + len(payload))
        _check_range("udp_length", length, 16)
        header = struct.pack("!HHHH", self.src_port, self.dst_port, length, 0)
        checksum = self.checksum
        if not checksum and pseudo_header is not None:
            checksum = internet_checksum(pseudo_header + header + payload) or 0xFFFF
        return header[:6] + struct.pack("!H", checksum)

    @classmethod
    def unpack(cls, data: bytes) -> tuple["UDP", bytes]:
        """Parse one UDP header; return (header, remaining bytes)."""
        if len(data) < cls.HEADER_LEN:
            raise PacketError(f"UDP header truncated: {len(data)} bytes")
        src_port, dst_port, length, checksum = struct.unpack("!HHHH", data[:8])
        return (
            cls(src_port=src_port, dst_port=dst_port, length=length, checksum=checksum),
            data[8:],
        )


@dataclass
class ICMP:
    """ICMP header (8 bytes: type, code, checksum, rest-of-header)."""

    icmp_type: int = 8  # echo request
    code: int = 0
    checksum: int = 0
    rest: int = 0

    HEADER_LEN = 8

    def pack(self, payload: bytes = b"") -> bytes:
        _check_range("icmp_type", self.icmp_type, 8)
        _check_range("icmp_code", self.code, 8)
        _check_range("icmp_rest", self.rest, 32)
        header = struct.pack("!BBHI", self.icmp_type, self.code, 0, self.rest)
        checksum = self.checksum or internet_checksum(header + payload)
        return header[:2] + struct.pack("!H", checksum) + header[4:]

    @classmethod
    def unpack(cls, data: bytes) -> tuple["ICMP", bytes]:
        """Parse one ICMP header; return (header, remaining bytes)."""
        if len(data) < cls.HEADER_LEN:
            raise PacketError(f"ICMP header truncated: {len(data)} bytes")
        icmp_type, code, checksum, rest = struct.unpack("!BBHI", data[:8])
        return cls(icmp_type=icmp_type, code=code, checksum=checksum, rest=rest), data[8:]
