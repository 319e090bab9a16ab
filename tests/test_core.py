import copy
import itertools
import operator
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowstable import core
from flowstable.core import (
    EPHEMERAL_PORT_RANGE,
    FlowId,
    Ipv4Address,
    Mechanism,
    Packet,
    PacketKind,
    Protocol,
    Sensitivity,
    SourceParams,
    Verdict,
)

import reference
from reference import flow_bytes

ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(Ipv4Address)
ports = st.integers(min_value=0, max_value=0xFFFF)
flows = st.builds(
    FlowId,
    src_ip=ips,
    dst_ip=ips,
    src_port=ports,
    dst_port=ports,
    protocol=st.sampled_from(list(Protocol)),
)


class TestIpv4Address:
    @given(ips)
    def test_render_parse_round_trip(self, addr):
        assert Ipv4Address.parse(str(addr)) == addr

    def test_parse_rejects_garbage(self):
        for bad in ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "01.2.3.4", ""]:
            with pytest.raises(ValueError):
                Ipv4Address.parse(bad)

    def test_parse_refuses_digits_of_other_scripts(self):
        # str.isdigit() and int() take them: Arabic-Indic "١٠" is 10,
        # fullwidth "１" is 1.
        for bad in ["\u0661\u0660.0.0.1", "10.0.0.\uff11"]:
            with pytest.raises(ValueError, match="bad octet"):
                Ipv4Address.parse(bad)

    def test_low_bits_is_mod_power_of_two(self):
        rng = random.Random(7)
        for _ in range(200):
            value = rng.randrange(0, 2**32)
            n = rng.randrange(1, 9)
            assert Ipv4Address(value).low_bits(n) == value % (2**n)

    def test_low_bits_range_check(self):
        with pytest.raises(ValueError):
            Ipv4Address(1).low_bits(0)
        with pytest.raises(ValueError):
            Ipv4Address(1).low_bits(9)


class TestFlowSerialization:
    def test_udp_example(self):
        flow = FlowId(
            Ipv4Address.parse("10.0.0.5"),
            Ipv4Address.parse("192.0.2.1"),
            40000,
            53,
            Protocol.UDP,
        )
        assert flow.to_bytes() == bytes.fromhex("0a000005c00002019c40003511")

    def test_tcp_example(self):
        flow = FlowId(
            Ipv4Address.parse("1.2.3.4"),
            Ipv4Address.parse("5.6.7.8"),
            80,
            443,
            Protocol.TCP,
        )
        assert flow.to_bytes() == bytes.fromhex("0102030405060708005001bb06")

    def test_zero_flow_udp(self):
        flow = FlowId(Ipv4Address(0), Ipv4Address(0), 0, 0, Protocol.UDP)
        assert flow.to_bytes() == b"\x00" * 12 + b"\x11"

    @given(flows)
    def test_matches_independent_layout(self, flow):
        expected = flow_bytes(
            str(flow.src_ip), str(flow.dst_ip), flow.src_port, flow.dst_port,
            flow.protocol.value,
        )
        assert flow.to_bytes() == expected

    @given(flows, ports)
    def test_src_port_only_changes_bytes_8_9(self, flow, port):
        other = FlowId(flow.src_ip, flow.dst_ip, port, flow.dst_port, flow.protocol)
        a, b = flow.to_bytes(), other.to_bytes()
        assert a[:8] == b[:8] and a[10:] == b[10:]

    def test_injective_over_random_flows(self):
        rng = random.Random(1234)
        seen = {}
        for _ in range(100_000):
            flow = FlowId(
                Ipv4Address(rng.randrange(2**32)),
                Ipv4Address(rng.randrange(2**32)),
                rng.randrange(2**16),
                rng.randrange(2**16),
                rng.choice([Protocol.TCP, Protocol.UDP]),
            )
            blob = flow.to_bytes()
            assert len(blob) == 13
            if blob in seen:
                assert seen[blob] == flow
            seen[blob] = flow


class TestPacket:
    @given(flows, st.integers(1, 255), st.integers(0, 0xFFFF),
           st.integers(1, 255), st.integers(0, 0xFFFF))
    def test_flow_id_invariant_under_ttl_and_ip_id(self, flow, ttl1, id1, ttl2, id2):
        a = Packet(flow, ttl=ttl1, ip_id=id1, kind=PacketKind.TCP_PAYLOAD)
        b = Packet(flow, ttl=ttl2, ip_id=id2, kind=PacketKind.TCP_PAYLOAD)
        assert a.flow == b.flow == flow

    def test_icmp_requires_quotation(self):
        flow = FlowId(Ipv4Address(1), Ipv4Address(2), 3, 4, Protocol.TCP)
        with pytest.raises(ValueError):
            Packet(flow, ttl=64, kind=PacketKind.ICMP_TTL_EXCEEDED)

    def test_ttl_bounds(self):
        flow = FlowId(Ipv4Address(1), Ipv4Address(2), 3, 4, Protocol.TCP)
        with pytest.raises(ValueError):
            Packet(flow, ttl=0)
        with pytest.raises(ValueError):
            Packet(flow, ttl=256)


class TestVerdict:
    def test_mechanism_tied_to_censored(self):
        assert Verdict.censored(Mechanism.RST_INJECTION).is_censored
        assert Verdict.not_censored().is_not_censored
        assert Verdict.excluded().is_excluded
        with pytest.raises(ValueError):
            Verdict(kind=Verdict.censored(Mechanism.BLOCKPAGE).kind)  # no mechanism

    def test_ephemeral_range_sane(self):
        lo, hi = EPHEMERAL_PORT_RANGE
        assert 1024 < lo < hi <= 65535


def test_source_params_validation():
    with pytest.raises(ValueError):
        SourceParams(Ipv4Address(1), 70000)


# --- the flow identities against their dataclass reference ------------------

def _small_or_any(hi):
    """Integers in 0..hi, often in 0..2, so that lists hold equal values
    and ties that the order breaks on a later field."""
    return st.one_of(st.integers(0, 2), st.integers(0, hi))


_flow_fields = st.tuples(_small_or_any(0xFFFFFFFF), _small_or_any(0xFFFFFFFF),
                         _small_or_any(0xFFFF), _small_or_any(0xFFFF),
                         st.sampled_from(list(Protocol)))


def _build(module, kind, fields):
    src, dst, src_port, dst_port, protocol = fields
    if kind == "address":
        return module.Ipv4Address(src)
    if kind == "source":
        return module.SourceParams(module.Ipv4Address(src), src_port)
    return module.FlowId(module.Ipv4Address(src), module.Ipv4Address(dst), src_port,
                         dst_port, protocol)


def _outcome(fn):
    """fn()'s value, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # the reference's exception must match too
        return type(exc)


class TestMatchesDataclassReference:
    """Hash, equality, order, str, repr and bytes of each value type equal
    those of the frozen dataclass it replaced (reference.py), so set and
    dict order, sorted output, run ids and log bytes cannot drift."""

    @pytest.mark.parametrize("kind", ["address", "source", "flow"])
    @given(st.lists(_flow_fields, min_size=1, max_size=12))
    def test_same_hash_order_and_text(self, kind, rows):
        new = [_build(core, kind, row) for row in rows]
        old = [_build(reference, kind, row) for row in rows]
        assert [hash(x) for x in new] == [hash(x) for x in old]
        assert [str(x) for x in new] == [str(x) for x in old]
        assert [repr(x) for x in new] == [repr(x) for x in old]
        if kind == "flow":
            assert [x.to_bytes() for x in new] == [x.to_bytes() for x in old]
        for i, j in itertools.product(range(len(rows)), repeat=2):
            a, b, ra, rb = new[i], new[j], old[i], old[j]
            assert (a == b, a != b) == (ra == rb, ra != rb)
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                assert _outcome(lambda: op(a, b)) == _outcome(lambda: op(ra, rb)), op
        assert _outcome(lambda: [repr(x) for x in sorted(new)]) == _outcome(
            lambda: [repr(x) for x in sorted(old)])
        assert [repr(x) for x in set(new)] == [repr(x) for x in set(old)]
        assert [repr(x) for x in dict.fromkeys(new)] == [repr(x) for x in dict.fromkeys(old)]


# --- construction --------------------------------------------------------------

#: Valid field values of each value type.
VALID = {
    Ipv4Address: (1,),
    SourceParams: (Ipv4Address(1), 40000),
    FlowId: (Ipv4Address(1), Ipv4Address(2), 40000, 80, Protocol.TCP),
    Packet: (FlowId(Ipv4Address(1), Ipv4Address(2), 40000, 80, Protocol.TCP), 64, 7,
             PacketKind.TCP_PAYLOAD, Sensitivity.CONTROL, "example.com", None),
}

#: A field out of range, per type.
OUT_OF_RANGE = [
    (Ipv4Address, {"value": -1}), (Ipv4Address, {"value": 2**32}),
    (SourceParams, {"src_port": -1}), (SourceParams, {"src_port": 0x10000}),
    (FlowId, {"src_port": 0x10000}), (FlowId, {"dst_port": -1}),
    (Packet, {"ttl": 0}), (Packet, {"ttl": 256}),
    (Packet, {"ip_id": -1}), (Packet, {"ip_id": 0x10000}),
]

CONSTRUCTORS = ["call", "keywords", "_make", "_replace", "copy", "deepcopy",
                *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))]


@pytest.mark.parametrize("how", CONSTRUCTORS)
@pytest.mark.parametrize("cls, bad", OUT_OF_RANGE,
                         ids=[f"{cls.__name__}-{bad}" for cls, bad in OUT_OF_RANGE])
def test_out_of_range_field_raises_through_every_constructor(cls, bad, how):
    with pytest.raises(ValueError, match="out of range"):
        _constructor(cls, bad, how)()


@pytest.mark.parametrize("how", CONSTRUCTORS)
def test_unquoted_time_exceeded_packet_raises_through_every_constructor(how):
    with pytest.raises(ValueError, match="must quote"):
        _constructor(Packet, {"kind": PacketKind.ICMP_TTL_EXCEEDED}, how)()


def _constructor(cls, bad, how):
    """A call that constructs cls, with VALID's fields but bad's, by how."""
    fields = {**dict(zip(cls._fields, VALID[cls])), **bad}
    values = tuple(fields.values())
    # An instance made around the checks: copying or unpickling it
    # constructs it again, through them.
    unchecked = tuple.__new__(cls, values)
    return {
        "call": lambda: cls(*values),
        "keywords": lambda: cls(**fields),
        "_make": lambda: cls._make(values),
        "_replace": lambda: cls(*VALID[cls])._replace(**bad),
        "copy": lambda: copy.copy(unchecked),
        "deepcopy": lambda: copy.deepcopy(unchecked),
    }.get(how) or (lambda: pickle.loads(pickle.dumps(unchecked, int(how[len("pickle"):]))))


@pytest.mark.parametrize("cls", list(VALID))
def test_copy_and_pickle_round_trip(cls):
    value = cls(*VALID[cls])
    copies = [copy.copy(value), copy.deepcopy(value), value._replace(),
              *(pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1))]
    for other in copies:
        assert type(other) is cls
        assert (other, hash(other), repr(other)) == (value, hash(value), repr(value))


@pytest.mark.parametrize("cls", list(VALID))
def test_fields_are_read_only_and_instances_have_no_dict(cls):
    value, field = cls(*VALID[cls]), cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, VALID[cls][0])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


def test_equal_to_a_plain_tuple_of_its_fields():
    # What a tuple subclass is; core's docstring says so.
    for cls, fields in VALID.items():
        assert cls(*fields) == fields and hash(cls(*fields)) == hash(fields)
