"""The read-back side of the packet path, held against what ``src/`` writes.

The program only ever *writes* packets: :class:`~repro.packet.builder.
PacketBuilder` crafts them and :func:`~repro.packet.pcap.write_pcap`
exports a trace the way the paper's testbed replays one.  These are the
inverses the tests read that output back with — OVS-style flow extraction
(:func:`flow_key`), the IPv4 header checksum check, and a libpcap reader
with its input checks — so a builder or writer bug shows up as a key,
checksum or record that does not round-trip.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.exceptions import PacketError, PcapError
from repro.packet.fields import FlowKey
from repro.packet.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ICMP,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP,
    UDP,
    Ethernet,
    IPv4,
    IPv6,
    internet_checksum,
)
from repro.packet.packet import Header, Packet
from repro.packet.pcap import _GLOBAL_HEADER, _MAGIC_US, LINKTYPE_ETHERNET

_MAGIC_US_SWAPPED = 0xD4C3B2A1  # a capture written on the other byte order


def flow_key(packet: Packet, in_port: int = 0) -> FlowKey:
    """Extract the flow key the classifiers match on.

    Mirrors OVS flow extraction: zero-fill fields of absent layers and
    take L4 ports from TCP/UDP (ICMP type/code are mapped onto the port
    fields, as OVS does).
    """
    kwargs: dict[str, int] = {"in_port": in_port}
    eth = packet.eth
    if eth is not None:
        kwargs["eth_src"] = eth.src
        kwargs["eth_dst"] = eth.dst
        kwargs["eth_type"] = eth.ethertype
    ip4 = packet.ip
    ip6 = packet.ip6
    if ip4 is not None:
        kwargs["ip_src"] = ip4.src
        kwargs["ip_dst"] = ip4.dst
        kwargs["ip_proto"] = ip4.proto
        kwargs["ip_ttl"] = ip4.ttl
        kwargs["ip_tos"] = ip4.tos
        kwargs.setdefault("eth_type", ETHERTYPE_IPV4)
    elif ip6 is not None:
        kwargs["ipv6_src"] = ip6.src
        kwargs["ipv6_dst"] = ip6.dst
        kwargs["ip_proto"] = ip6.next_header
        kwargs["ip_ttl"] = ip6.hop_limit
        kwargs["ip_tos"] = ip6.traffic_class
        kwargs.setdefault("eth_type", ETHERTYPE_IPV6)
    tcp = packet.tcp
    udp = packet.udp
    icmp = packet.layer(ICMP)
    if tcp is not None:
        kwargs["tp_src"] = tcp.src_port
        kwargs["tp_dst"] = tcp.dst_port
    elif udp is not None:
        kwargs["tp_src"] = udp.src_port
        kwargs["tp_dst"] = udp.dst_port
    elif icmp is not None:
        kwargs["tp_src"] = icmp.icmp_type
        kwargs["tp_dst"] = icmp.code
    return FlowKey(**kwargs)


def parse_packet(data: bytes, link_layer: bool = True) -> Packet:
    """Parse wire bytes into a :class:`Packet`.

    Args:
        data: raw bytes.
        link_layer: when True, expect an Ethernet header first; otherwise
            start at the IP layer (pcap files written with a RAW linktype).
    """
    layers: list[Header] = []
    rest = data
    next_proto: int | None = None

    if link_layer:
        eth, rest = Ethernet.unpack(rest)
        layers.append(eth)
        ethertype = eth.ethertype
    else:
        if not rest:
            raise PacketError("empty packet")
        version = rest[0] >> 4
        ethertype = ETHERTYPE_IPV4 if version == 4 else ETHERTYPE_IPV6

    if ethertype == ETHERTYPE_IPV4:
        ip4, rest = IPv4.unpack(rest)
        layers.append(ip4)
        next_proto = ip4.proto
    elif ethertype == ETHERTYPE_IPV6:
        ip6, rest = IPv6.unpack(rest)
        layers.append(ip6)
        next_proto = ip6.next_header
    else:
        # Unknown L3: keep remaining bytes as payload.
        return Packet(layers=layers, payload=rest)

    if next_proto == PROTO_TCP:
        tcp, rest = TCP.unpack(rest)
        layers.append(tcp)
    elif next_proto == PROTO_UDP:
        udp, rest = UDP.unpack(rest)
        layers.append(udp)
    elif next_proto == PROTO_ICMP:
        icmp, rest = ICMP.unpack(rest)
        layers.append(icmp)

    return Packet(layers=layers, payload=rest)


def ipv4_checksum_ok(header: IPv4) -> bool:
    """True when the header's stored checksum matches its contents."""
    packed = IPv4(
        src=header.src,
        dst=header.dst,
        proto=header.proto,
        ttl=header.ttl,
        tos=header.tos,
        ident=header.ident,
        flags=header.flags,
        frag_offset=header.frag_offset,
        total_length=header.total_length or header.HEADER_LEN,
    ).pack()
    return internet_checksum(packed) == 0


@dataclass(frozen=True)
class PcapRecord:
    """One captured packet: timestamp (seconds, float) plus raw bytes."""

    timestamp: float
    data: bytes


class PcapReader:
    """Streaming pcap reader (iterates :class:`PcapRecord`)."""

    def __init__(self, source: str | Path | BinaryIO):
        if isinstance(source, (str, Path)):
            self._file: BinaryIO = open(source, "rb")
            self._owns_file = True
        else:
            self._file = source
            self._owns_file = False
        header = self._file.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise PcapError("pcap global header truncated")
        magic, major, minor, _tz, _sig, snaplen, linktype = _GLOBAL_HEADER.unpack(header)
        if magic == _MAGIC_US:
            self._swapped = False
        elif magic == _MAGIC_US_SWAPPED:
            self._swapped = True
        else:
            raise PcapError(f"bad pcap magic {magic:#010x}")
        self.version = (major, minor)
        self.snaplen = snaplen
        self.linktype = linktype

    def __iter__(self) -> Iterator[PcapRecord]:
        record_struct = struct.Struct(">IIII" if self._swapped else "<IIII")
        while True:
            header = self._file.read(record_struct.size)
            if not header:
                return
            if len(header) < record_struct.size:
                raise PcapError("pcap record header truncated")
            ts_sec, ts_usec, incl_len, orig_len = record_struct.unpack(header)
            if incl_len > orig_len or incl_len > self.snaplen + 65535:
                raise PcapError(f"pcap record has implausible length {incl_len}")
            data = self._file.read(incl_len)
            if len(data) < incl_len:
                raise PcapError("pcap record body truncated")
            yield PcapRecord(timestamp=ts_sec + ts_usec / 1_000_000, data=data)

    def packets(self) -> Iterator[tuple[float, Packet]]:
        """Iterate (timestamp, parsed Packet) pairs."""
        link_layer = self.linktype == LINKTYPE_ETHERNET
        for record in self:
            yield record.timestamp, parse_packet(record.data, link_layer=link_layer)

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_pcap(path: str | Path) -> list[tuple[float, Packet]]:
    """Read every packet of a pcap file into memory."""
    with PcapReader(path) as reader:
        return list(reader.packets())
