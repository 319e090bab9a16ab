"""Domain types shared by every other module.

Everything in here is an immutable value object: addresses, flow
identifiers, packets, probe verdicts. Instances are safe to share
between concurrent workers.

Ipv4Address, SourceParams, FlowId and Packet are tuples of their fields
(named tuple subclasses with no instance dict), so hashing, equality and
order run in C and building one costs one Python frame: a run's cells
are keyed, hashed and sorted by the flow identities, and a run builds
packets per hop. Their hashes and reprs, and the identities' sort order,
are those of the frozen dataclasses they replaced, which hashed and
compared the same tuples. Every constructor they expose (the class,
_make, _replace, copy and pickle) checks the fields: their ranges, and
that a time-exceeded packet quotes its source. Being tuples, each is
equal to a plain tuple of the same fields, and json would write one as
an array: they are never handed to json, and a log holds their text
(logio writes str(address) and the port).
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple


class Protocol(Enum):
    """Transport protocol, numbered per the IP protocol registry. Each
    member holds its number as a plain attribute: a member's value is
    read through a Python-level descriptor."""

    TCP = 6
    UDP = 17

    def __init__(self, number: int) -> None:
        self.number: int = number


#: Each application protocol's port, by the protocol's value.
_APP_PORTS = {"dns": 53, "http": 80, "https": 443}


class AppProtocol(Enum):
    """Application protocol of a probe; fixes transport and port, which
    each member holds as plain attributes (no lookup keyed by a member,
    whose hash runs in Python)."""

    DNS = "dns"
    HTTP = "http"
    HTTPS = "https"

    def __init__(self, value: str) -> None:
        self.port: int = _APP_PORTS[value]
        self.transport = Protocol.UDP if value == "dns" else Protocol.TCP


#: Ephemeral source-port range planners draw from (inclusive).
EPHEMERAL_PORT_RANGE = (32768, 60999)

_tuple_new = tuple.__new__


def _checked_make(cls, iterable):
    return cls(*iterable)


def _reduce(self):
    return type(self), tuple(self)


def _fields(typename: str, names: str):
    """The named-tuple base of a value type whose __new__ checks its
    fields: its _make (which _replace calls) and its copy and pickle
    construct through that __new__, never around it."""
    base = namedtuple(typename, names)
    base._make = classmethod(_checked_make)
    base.__reduce__ = _reduce
    return base


class Ipv4Address(_fields("Ipv4Address", "value")):
    """An IPv4 address held as a 32-bit unsigned integer."""

    __slots__ = ()

    def __new__(cls, value: int) -> "Ipv4Address":
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError(f"address out of range: {value}")
        return _tuple_new(cls, (value,))

    @classmethod
    def parse(cls, dotted: str) -> "Ipv4Address":
        """A dotted quad of ASCII decimal octets, 0 to 255, with no sign,
        space or leading zero."""
        parts = dotted.split(".")
        if len(parts) != 4:
            raise ValueError(f"not a dotted quad: {dotted!r}")
        value = 0
        for part in parts:
            if not (part.isascii() and part.isdigit()) or (len(part) > 1 and part[0] == "0"):
                raise ValueError(f"bad octet {part!r} in {dotted!r}")
            octet = int(part)
            if octet > 255:
                raise ValueError(f"octet out of range in {dotted!r}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def low_bits(self, n: int) -> int:
        """Value of the n lowest-order bits, 1 <= n <= 8."""
        if not 1 <= n <= 8:
            raise ValueError(f"n must be in 1..8, got {n}")
        return self.value & ((1 << n) - 1)


class FlowId(_fields("FlowId", "src_ip dst_ip src_port dst_port protocol")):
    """The 5-tuple routers hash when picking an ECMP next hop."""

    __slots__ = ()

    def __new__(cls, src_ip: Ipv4Address, dst_ip: Ipv4Address, src_port: int,
                dst_port: int, protocol: Protocol) -> "FlowId":
        for port in (src_port, dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"port out of range: {port}")
        return _tuple_new(cls, (src_ip, dst_ip, src_port, dst_port, protocol))

    def to_bytes(self) -> bytes:
        """Canonical 13-byte layout: ips, ports big-endian, protocol number."""
        return struct.pack(
            ">IIHHB",
            self.src_ip.value,
            self.dst_ip.value,
            self.src_port,
            self.dst_port,
            self.protocol.number,
        )


class SourceParams(_fields("SourceParams", "src_ip src_port")):
    """The prober-controlled half of a flow: source IP and port."""

    __slots__ = ()

    def __new__(cls, src_ip: Ipv4Address, src_port: int) -> "SourceParams":
        if not 0 <= src_port <= 0xFFFF:
            raise ValueError(f"port out of range: {src_port}")
        return _tuple_new(cls, (src_ip, src_port))

    def __str__(self) -> str:
        return f"{self.src_ip}:{self.src_port}"


class PacketKind(Enum):
    """What a packet is. Each member holds its value's ASCII bytes as a
    plain attribute, encoded: a key that hashes in C, where a member's
    own hash runs in Python."""

    TCP_SYN = "tcp_syn"
    TCP_SYNACK = "tcp_synack"
    TCP_ACK = "tcp_ack"
    TCP_PAYLOAD = "tcp_payload"
    TCP_RST = "tcp_rst"
    UDP_PAYLOAD = "udp_payload"
    ICMP_TTL_EXCEEDED = "icmp_ttl_exceeded"
    DNS_RESPONSE = "dns_response"
    HTTP_RESPONSE = "http_response"

    def __init__(self, value: str) -> None:
        self.encoded: bytes = value.encode()


class Sensitivity(Enum):
    CONTROL = "control"
    SENSITIVE = "sensitive"
    NOT_APPLICABLE = "n/a"


class Packet(_fields("Packet", "flow ttl ip_id kind sensitivity body_tag quoted")):
    """One simulated packet.

    body_tag is an opaque label: the probed domain on outgoing payloads,
    a blockpage template id or DNS answer tag on injected responses, and
    the originating node id on ICMP time-exceeded messages.
    """

    __slots__ = ()

    def __new__(cls, flow: FlowId, ttl: int, ip_id: int = 0,
                kind: PacketKind = PacketKind.TCP_PAYLOAD,
                sensitivity: Sensitivity = Sensitivity.NOT_APPLICABLE, body_tag: str = "",
                quoted: Optional[Tuple[SourceParams, int]] = None) -> "Packet":
        if not 1 <= ttl <= 255:
            raise ValueError(f"ttl out of range: {ttl}")
        if not 0 <= ip_id <= 0xFFFF:
            raise ValueError(f"ip_id out of range: {ip_id}")
        if kind is PacketKind.ICMP_TTL_EXCEEDED and quoted is None:
            raise ValueError("ICMP time-exceeded packets must quote (source, ip_id)")
        return _tuple_new(cls, (flow, ttl, ip_id, kind, sensitivity, body_tag, quoted))


class Mechanism(Enum):
    RST_INJECTION = "rst_injection"
    PACKET_DROP = "packet_drop"
    BLOCKPAGE = "blockpage"
    DNS_INJECTION = "dns_injection"


class VerdictKind(Enum):
    CENSORED = "censored"
    NOT_CENSORED = "not_censored"
    EXCLUDED = "excluded"


@dataclass(frozen=True)
class Verdict:
    """Conservative outcome for one (destination, source-params) cell."""

    kind: VerdictKind
    mechanism: Optional[Mechanism] = None

    def __post_init__(self) -> None:
        if (self.kind is VerdictKind.CENSORED) != (self.mechanism is not None):
            raise ValueError("mechanism present iff verdict is censored")

    @classmethod
    def censored(cls, mechanism: Mechanism) -> "Verdict":
        return cls(VerdictKind.CENSORED, mechanism)

    @classmethod
    def not_censored(cls) -> "Verdict":
        return cls(VerdictKind.NOT_CENSORED)

    @classmethod
    def excluded(cls) -> "Verdict":
        return cls(VerdictKind.EXCLUDED)

    @property
    def is_censored(self) -> bool:
        return self.kind is VerdictKind.CENSORED

    @property
    def is_not_censored(self) -> bool:
        return self.kind is VerdictKind.NOT_CENSORED

    @property
    def is_excluded(self) -> bool:
        return self.kind is VerdictKind.EXCLUDED
