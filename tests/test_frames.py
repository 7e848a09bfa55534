import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haina.errors import ParseError
from haina.frames import (
    BODY_TYPES,
    FRAME_OVERHEAD,
    HEADER_FMT,
    MAGIC,
    MAX_FRAME,
    MAX_HEADER,
    Frame,
    MsgType,
    _decode_header,
    _encode_header,
    decode_frame,
    encode_frame,
    frame_length,
    int_field,
)

header_keys = st.text(
    alphabet=st.characters(blacklist_characters=":\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=20,
)
header_values = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(list(MsgType)),
    st.dictionaries(header_keys, header_values, max_size=5),
    st.binary(max_size=200),
)
def test_roundtrip_every_type(msg_type, header, body):
    frame = Frame(msg_type, header, body)
    if body and msg_type not in BODY_TYPES:
        with pytest.raises(ParseError, match="carries no body"):
            decode_frame(encode_frame(frame))
    else:
        assert decode_frame(encode_frame(frame)) == frame


@pytest.mark.parametrize("msg_type", list(MsgType))
def test_every_type_decodes_to_its_own_member(msg_type):
    assert decode_frame(encode_frame(Frame(msg_type))).type is msg_type


def test_frames_do_not_share_a_header_dict():
    first, second = Frame(MsgType.PING), Frame(MsgType.PING)
    assert first == second and first.header is not second.header
    first.header["k"] = "v"
    assert second.header == {}


def test_empty_ping_is_overhead_only():
    raw = encode_frame(Frame(MsgType.PING))
    assert len(raw) == FRAME_OVERHEAD == 17


@pytest.mark.parametrize("wrap", [bytes, bytearray])
def test_decoded_body_is_a_read_only_view_of_the_buffer(wrap):
    raw = wrap(encode_frame(Frame(MsgType.BLOCK_DATA, {"a": "b"}, b"payload")))
    body = decode_frame(raw).body
    assert body.readonly and body.obj is raw and body == b"payload"


def test_bad_magic_rejected():
    raw = bytearray(encode_frame(Frame(MsgType.PING)))
    raw[:4] = b"XXXX"
    with pytest.raises(ParseError, match="magic"):
        decode_frame(bytes(raw))


def test_unknown_type_tag_rejected():
    raw = bytearray(encode_frame(Frame(MsgType.PING)))
    for tag in (0, 19, 200, 255):
        raw[4] = tag
        with pytest.raises(ParseError, match="type tag"):
            decode_frame(bytes(raw))


@pytest.mark.parametrize("tag", [10, 11, 12, 13])
def test_reserved_type_tags_rejected(tag):
    raw = bytearray(encode_frame(Frame(MsgType.PING)))
    raw[4] = tag
    with pytest.raises(ParseError, match="type tag"):
        decode_frame(bytes(raw))


@pytest.mark.parametrize("msg_type", sorted(set(MsgType) - BODY_TYPES))
def test_head_alone_rejects_a_body_on_a_type_without_one(msg_type):
    head = bytearray(encode_frame(Frame(msg_type)))
    head[9:17] = (1).to_bytes(8, "big")
    with pytest.raises(ParseError, match="carries no body"):
        frame_length(head)


@pytest.mark.parametrize("declared,refused", [(MAX_HEADER, False), (MAX_HEADER + 1, True)])
def test_head_alone_rejects_a_header_over_the_cap(declared, refused):
    head = bytearray(encode_frame(Frame(MsgType.PING)))
    head[5:9] = declared.to_bytes(4, "big")
    if refused:
        with pytest.raises(ParseError, match="header size"):
            frame_length(head)
    else:
        assert frame_length(head) == FRAME_OVERHEAD + MAX_HEADER


@pytest.mark.parametrize(
    "frame,reason",
    [
        (Frame(MsgType.PING, body=b"x"), "carries no body"),
        (Frame(MsgType.PING, {"k": "v" * (MAX_HEADER - 3)}), "header size"),  # "k: " and "\n" make it one byte over
        (Frame(MsgType.PING, {"k": "a\nb: c"}), "newline in header value"),  # it would decode as a second field
    ],
    ids=["body-on-a-ping", "header-over-the-cap", "newline-in-a-value"],
)
def test_encoding_refuses_what_every_peer_refuses(frame, reason):
    with pytest.raises(ParseError, match=reason):
        encode_frame(frame)


@pytest.mark.parametrize("tag", [0, 10, 19, 255])
def test_head_alone_rejects_an_unknown_type_tag(tag):
    head = bytearray(encode_frame(Frame(MsgType.PING)))
    head[4] = tag
    with pytest.raises(ParseError, match="type tag"):
        frame_length(head)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(max_size=40), st.text(alphabet="ab: \n\r\x00é", max_size=40).map(str.encode)))
def test_a_decoded_header_encodes_back_to_its_bytes(raw):
    # the decoder accepts only what the encoder writes: no repeated key, blank line, \r, ':' in a key or open last line
    try:
        header = _decode_header(raw)
    except ParseError:
        return
    assert _encode_header(header) == raw


@pytest.mark.parametrize(
    "raw,reason",
    [
        (b"address: 00\naddress: 11\n", "repeated"),
        (b"a: b\n\nc: d\n", "malformed"),
        (b"a: b\r\n", "carriage return"),
        (b"a:b: c\n", "malformed"),
        (b"a: b", "newline"),
    ],
    ids=["repeated-key", "blank-line", "carriage-return", "colon-in-key", "no-last-newline"],
)
def test_header_the_encoder_cannot_write_rejected(raw, reason):
    frame = HEADER_FMT.pack(MAGIC, int(MsgType.HAS_BLOCK), len(raw), 0) + raw
    with pytest.raises(ParseError, match=reason):
        decode_frame(frame)


def test_empty_header_key_cannot_be_encoded():
    with pytest.raises(ParseError, match="empty header key"):
        encode_frame(Frame(MsgType.PING, {"": "v"}))


def test_truncated_frame_rejected():
    raw = encode_frame(Frame(MsgType.BLOCK_DATA, {"a": "b"}, b"payload"))
    with pytest.raises(ParseError):
        decode_frame(raw[:-3])
    with pytest.raises(ParseError):
        decode_frame(raw[:10])


def test_oversize_frame_rejected():
    with pytest.raises(ParseError, match="cap"):
        encode_frame(Frame(MsgType.BLOCK_DATA, {}, b"\x00" * (MAX_FRAME + 1)))


def test_declared_oversize_rejected_without_allocating():
    raw = bytearray(encode_frame(Frame(MsgType.PING)))
    raw[9:17] = (MAX_FRAME * 2).to_bytes(8, "big")
    with pytest.raises(ParseError, match="cap"):
        decode_frame(bytes(raw))


def test_mutation_fuzz_never_crashes():
    # a larger run backs the acceptance criterion; this is the fast check
    rng = random.Random(99)
    base = encode_frame(Frame(MsgType.STORE_READY, {"next_size": "10"}, b"data" * 10))
    for _ in range(2000):
        raw = bytearray(base)
        for _ in range(rng.randint(1, 4)):
            raw[rng.randrange(len(raw))] = rng.randrange(256)
        try:
            frame = decode_frame(bytes(raw))
        except ParseError:
            continue
        assert isinstance(frame, Frame)


@pytest.mark.parametrize("number", [0, 1, 10, 4200, 10**18])
def test_int_field_reads_what_str_writes(number):
    assert int_field(Frame(MsgType.ELECTION, {"size": str(number)}), "size") == number


def test_int_field_reads_an_absent_field_as_zero():
    assert int_field(Frame(MsgType.ELECTION), "size") == 0


@pytest.mark.parametrize(
    "value",
    ["", "00", "1.5", "5 ", "\u00b2", "9" * 5000, b"5", 5, None],
    ids=["empty", "double-zero", "decimal-point", "trailing-space", "superscript", "past-int-digit-limit", "bytes", "int", "none"],
)
def test_int_field_refuses_every_other_form(value):
    # the forms int() reads are tested where nodes and campaigns parse; an in-process
    # SimNet frame can carry any object, and a ParseError is still the only failure
    with pytest.raises(ParseError, match="^size:"):
        int_field(Frame(MsgType.ELECTION, {"size": value}), "size")
