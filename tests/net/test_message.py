"""Wire codec: roundtrips, tagged types, failure modes."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TransportError
from repro.net.message import decode, encode, wire_size

wire_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**18), max_value=10**18),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=30),
        st.binary(max_size=30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.tuples(children, children),
    ),
    max_leaves=12,
)


@given(payload=wire_values)
def test_roundtrip(payload):
    assert decode(encode(payload)) == payload


@pytest.mark.parametrize("payload", [
    {"__s__": ""}, {"__t__": None}, {"__b__": "00"}, {"__d__": 1},
    {"x": {"__s__": []}},
])
def test_plain_dicts_named_like_tags_survive(payload):
    assert decode(encode(payload)) == payload


def test_bytes_tagging():
    assert decode(encode(b"\x00\xff")) == b"\x00\xff"


def test_tuples_survive():
    assert decode(encode((1, (2, b"x")))) == (1, (2, b"x"))


def test_sets_survive():
    assert decode(encode({"ids": {"a", "b"}})) == {"ids": {"a", "b"}}


def test_big_integers_survive():
    n = 2**2048 - 12345  # a Paillier-sized ciphertext
    assert decode(encode({"ct": n})) == {"ct": n}


def test_wire_size_positive():
    assert wire_size({"k": b"\x00" * 10}) > 10


def test_deterministic_encoding():
    assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})


def test_rejects_unencodable():
    with pytest.raises(TransportError):
        encode(object())


def test_rejects_garbage_bytes():
    with pytest.raises(TransportError):
        decode(b"\xff\xfe not json")
