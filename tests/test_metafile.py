import json
import random

import pytest

from haina.errors import ParseError
from haina.metafile import MetaFile, parse_meta_file, serialize_meta_file


def _meta(**overrides):
    rng = random.Random(9)
    fields = dict(
        first_beginner="10.0.0.7:9000",
        header_digest=rng.randbytes(32),
        mask=rng.randbytes(32),
        block_count=20,
        iv=rng.randbytes(16),
        file_length=1234,
        chain_root=rng.randbytes(32),
    )
    fields.update(overrides)
    return MetaFile(**fields)


def test_roundtrip_identity():
    meta = _meta()
    assert parse_meta_file(serialize_meta_file(meta)) == meta


def test_document_is_json_with_hex_fields():
    doc = json.loads(serialize_meta_file(_meta()).decode())
    assert len(doc["header_digest"]) == 64
    assert len(doc["mask"]) == 64
    assert doc["header_digest"] == doc["header_digest"].lower()
    assert doc["hash_alg"] == "sha256"


def test_zero_mask_rejected_on_build_and_parse():
    with pytest.raises(ParseError, match="mask"):
        _meta(mask=b"\x00" * 32)
    doc = json.loads(serialize_meta_file(_meta()).decode())
    doc["mask"] = "00" * 32
    with pytest.raises(ParseError, match="mask"):
        parse_meta_file(json.dumps(doc).encode())


def test_bad_iv_length_rejected_on_build_and_parse():
    with pytest.raises(ParseError, match="iv"):
        _meta(iv=b"\x00" * 8)
    doc = json.loads(serialize_meta_file(_meta()).decode())
    doc["iv"] = "00" * 8
    with pytest.raises(ParseError, match="iv"):
        parse_meta_file(json.dumps(doc).encode())


@pytest.mark.parametrize("field", ["block_count", "file_length"])
def test_bool_count_rejected_on_build_and_parse(field):
    # JSON true is a Python bool, and so an int
    with pytest.raises(ParseError, match=field):
        _meta(**{field: True})
    doc = json.loads(serialize_meta_file(_meta()).decode())
    doc[field] = True
    with pytest.raises(ParseError, match=field):
        parse_meta_file(json.dumps(doc).encode())


@pytest.mark.parametrize("field,value", [("first_beginner", ""), ("block_count", 0), ("file_length", 0)])
def test_empty_or_zero_field_rejected_on_build_and_parse(field, value):
    with pytest.raises(ParseError, match=f"^{field}:"):
        _meta(**{field: value})
    doc = json.loads(serialize_meta_file(_meta()).decode())
    doc[field] = value
    with pytest.raises(ParseError, match=f"^{field}:"):
        parse_meta_file(json.dumps(doc).encode())


def test_block_count_past_the_ciphertext_rejected_on_build_and_parse():
    # upload gives each block at least one ciphertext byte, and 1234 bytes pad to 1248
    assert _meta(block_count=1248).block_count == 1248
    with pytest.raises(ParseError, match="block_count"):
        _meta(block_count=1249)
    doc = json.loads(serialize_meta_file(_meta()).decode())
    doc["block_count"] = 10**12  # a download would size its lists by it before fetching a block
    with pytest.raises(ParseError, match="block_count"):
        parse_meta_file(json.dumps(doc).encode())


@pytest.mark.parametrize("field", ["header_digest", "mask", "first_beginner", "block_count", "iv", "chain_root"])
def test_missing_field_named(field):
    doc = json.loads(serialize_meta_file(_meta()).decode())
    del doc[field]
    with pytest.raises(ParseError, match=field):
        parse_meta_file(json.dumps(doc).encode())


def test_unknown_field_rejected():
    doc = json.loads(serialize_meta_file(_meta()).decode())
    doc["surprise"] = 1
    with pytest.raises(ParseError, match="surprise"):
        parse_meta_file(json.dumps(doc).encode())


def test_malformed_hex_rejected():
    doc = json.loads(serialize_meta_file(_meta()).decode())
    doc["header_digest"] = "zz" * 32
    with pytest.raises(ParseError, match="header_digest"):
        parse_meta_file(json.dumps(doc).encode())


@pytest.mark.parametrize(
    "field,value", [("hash_alg", "sha3_256"), ("cipher", "aes128"), ("mode", "cbc"), ("version", True)]
)
def test_other_fixed_value_rejected(field, value):
    doc = json.loads(serialize_meta_file(_meta()).decode())
    doc[field] = value
    with pytest.raises(ParseError, match=field):
        parse_meta_file(json.dumps(doc).encode())


def test_unsupported_version_rejected():
    doc = json.loads(serialize_meta_file(_meta()).decode())
    doc["version"] = 99
    with pytest.raises(ParseError, match="version"):
        parse_meta_file(json.dumps(doc).encode())


def test_version_1_document_rejected_by_its_version():
    # version 1 had no chain_root: its walk could be redirected without an error
    doc = json.loads(serialize_meta_file(_meta()).decode())
    del doc["chain_root"]
    doc["version"] = 1
    with pytest.raises(ParseError, match="version"):
        parse_meta_file(json.dumps(doc).encode())


def test_not_json_rejected():
    with pytest.raises(ParseError):
        parse_meta_file(b"\xff\xfe not json")
