"""Independent reference implementations used as test oracles.

These are written against public definitions (FNV spec, byte layouts),
deliberately not importing anything from the package under test.
"""

import hashlib

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    h = FNV64_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def ip_to_int(dotted: str) -> int:
    a, b, c, d = (int(x) for x in dotted.split("."))
    for part in (a, b, c, d):
        assert 0 <= part <= 255
    return (a << 24) | (b << 16) | (c << 8) | d


def flow_bytes(src_ip: str, dst_ip: str, src_port: int, dst_port: int, proto_num: int) -> bytes:
    """Assemble the canonical 13-byte flow layout by hand."""
    out = bytearray()
    out += ip_to_int(src_ip).to_bytes(4, "big")
    out += ip_to_int(dst_ip).to_bytes(4, "big")
    out += src_port.to_bytes(2, "big")
    out += dst_port.to_bytes(2, "big")
    out.append(proto_num)
    return bytes(out)


def loss_uniform(seed: int, epoch: int, flow: bytes, kind: str, ip_id: int, node: int) -> float:
    """One loss draw from its documented key, hashed with blake2b to 8 bytes:
    seed(8)|epoch(8, signed)|flow(13)|kind|ip_id(2)|loss|node(8), big-endian."""
    key = b"|".join([
        seed.to_bytes(8, "big"),
        epoch.to_bytes(8, "big", signed=True),
        flow,
        kind.encode(),
        ip_id.to_bytes(2, "big"),
        b"loss",
        node.to_bytes(8, "big"),
    ])
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64
