"""Round-trip and robustness tests for the SKRL binary relation codec."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.io import decode_relation, encode_relation
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType

ALL_TYPES = Schema([
    Attribute("i", DataType.INT64),
    Attribute("f", DataType.FLOAT64),
    Attribute("s", DataType.STRING),
    Attribute("b", DataType.BOOL),
])

WITH_BYTES = Schema([
    Attribute("k", DataType.INT64),
    Attribute("blob", DataType.BYTES),
])


def roundtrip(relation: Relation) -> Relation:
    return decode_relation(encode_relation(relation))


class TestRoundTrip:
    def test_every_dtype(self):
        relation = Relation.from_rows(ALL_TYPES, [
            [1, 0.5, "alpha", True],
            [-2**62, -1e300, "", False],
            [0, float("inf"), "çedilla ünïcode", True],
        ])
        decoded = roundtrip(relation)
        assert decoded.schema is not relation.schema
        assert list(decoded.schema.names) == ["i", "f", "s", "b"]
        assert decoded.multiset_equals(relation)

    @pytest.mark.parametrize("dtype,values", [
        (DataType.INT64, [0, 1, -1, 2**63 - 1, -2**63]),
        (DataType.FLOAT64, [0.0, -0.0, 1.5, 1e308, -1e308]),
        (DataType.STRING, ["", "a", "multi word", "ünïcode—☃", "x" * 500]),
        (DataType.BOOL, [True, False, True, True, False]),
    ])
    def test_single_column_exact(self, dtype, values):
        schema = Schema([Attribute("c", dtype)])
        relation = Relation.from_rows(schema, [[v] for v in values])
        decoded = roundtrip(relation)
        assert decoded.column("c").dtype == relation.column("c").dtype
        assert list(decoded.column("c")) == list(relation.column("c"))

    def test_nan_preserved(self):
        schema = Schema([Attribute("f", DataType.FLOAT64)])
        relation = Relation.from_rows(schema, [[float("nan")], [1.0]])
        decoded = roundtrip(relation)
        assert np.isnan(decoded.column("f")[0])
        assert decoded.column("f")[1] == 1.0

    def test_empty_relation_every_dtype(self):
        empty = Relation.empty(ALL_TYPES)
        decoded = roundtrip(empty)
        assert decoded.num_rows == 0
        assert list(decoded.schema.names) == list(ALL_TYPES.names)
        assert [a.dtype for a in decoded.schema] == \
            [a.dtype for a in ALL_TYPES]

    def test_zero_attribute_relation(self):
        relation = Relation(Schema([]), {})
        decoded = roundtrip(relation)
        assert decoded.num_rows == 0
        assert len(decoded.schema) == 0

    def test_deterministic_encoding(self):
        relation = Relation.from_rows(ALL_TYPES, [[7, 2.5, "s", False]])
        assert encode_relation(relation) == encode_relation(relation)

    def test_large_relation(self):
        count = 10_000
        relation = Relation.from_dicts([
            {"k": i, "v": i * 0.25, "tag": f"t{i % 97}"}
            for i in range(count)])
        decoded = roundtrip(relation)
        assert decoded.num_rows == count
        assert decoded.multiset_equals(relation)


class TestNullAndNonFinite:
    """NaN-as-NULL and ±inf must survive the codec *bit-exactly*.

    The engine has no NULL representation of its own: an aggregate over
    an empty group finalizes to NaN (AVG, VAR, APPROX_MEDIAN) and the
    presentation layer prints it as ``NULL``.  For the process transport
    to agree with the in-process one, the SKRL FLOAT64 path must carry
    those NaNs (and infinities) through without normalizing them.
    """

    def test_nan_inf_bit_patterns_preserved(self):
        schema = Schema([Attribute("f", DataType.FLOAT64)])
        values = [float("nan"), float("inf"), float("-inf"),
                  -0.0, 5e-324, 1.0]
        relation = Relation.from_rows(schema, [[v] for v in values])
        decoded = roundtrip(relation)
        before = relation.column("f").view(np.uint64)
        after = decoded.column("f").view(np.uint64)
        assert np.array_equal(before, after)  # bit-for-bit, NaN included

    def test_all_nan_column(self):
        schema = Schema([Attribute("f", DataType.FLOAT64)])
        relation = Relation.from_rows(
            schema, [[float("nan")] for __ in range(17)])
        decoded = roundtrip(relation)
        assert np.isnan(decoded.column("f")).all()

    def test_empty_relation_roundtrip_repeatedly(self):
        # empty sub-results flow through transports constantly
        empty = Relation.empty(ALL_TYPES)
        assert encode_relation(empty) == encode_relation(roundtrip(empty))

    def test_nan_prints_as_null(self):
        schema = Schema([Attribute("f", DataType.FLOAT64)])
        relation = Relation.from_rows(schema, [[float("nan")], [2.0]])
        rendered = roundtrip(relation).pretty()
        assert "NULL" in rendered
        assert "nan" not in rendered


class TestBytesColumns:
    """BYTES columns (serialized sketch states) through the codec."""

    def test_roundtrip_blobs(self):
        rows = [[1, b""], [2, b"\x00\x01\x02"], [3, b"\xff" * 300],
                [4, bytes(range(256))]]
        relation = Relation.from_rows(WITH_BYTES, rows)
        decoded = roundtrip(relation)
        assert list(decoded.column("blob")) == [row[1] for row in rows]
        assert decoded.schema.dtype("blob") is DataType.BYTES

    def test_empty_bytes_relation(self):
        decoded = roundtrip(Relation.empty(WITH_BYTES))
        assert decoded.num_rows == 0
        assert decoded.schema.dtype("blob") is DataType.BYTES

    def test_sketch_state_roundtrip_bit_identical(self):
        from repro.sketches import HyperLogLog, QuantileSketch
        hll = HyperLogLog(10)
        hll.update(np.arange(5000, dtype=np.int64))
        kll = QuantileSketch(64)
        kll.update(np.linspace(0.0, 1.0, 3000))
        relation = Relation.from_rows(
            WITH_BYTES, [[0, hll.to_bytes()], [1, kll.to_bytes()]])
        decoded = roundtrip(relation)
        assert decoded.column("blob")[0] == hll.to_bytes()
        assert decoded.column("blob")[1] == kll.to_bytes()
        # a decoded state is still usable
        revived = HyperLogLog.from_bytes(decoded.column("blob")[0])
        assert revived.estimate() == hll.estimate()

    def test_wire_bytes_counts_blob_payload(self):
        small = Relation.from_rows(WITH_BYTES, [[0, b"xy"]])
        large = Relation.from_rows(WITH_BYTES, [[0, b"x" * 1000]])
        assert large.wire_bytes() - small.wire_bytes() == 998

    def test_deterministic_encoding_with_bytes(self):
        relation = Relation.from_rows(WITH_BYTES, [[7, b"state"]])
        assert encode_relation(relation) == encode_relation(relation)


class TestMalformedPayloads:
    def payload(self) -> bytes:
        return encode_relation(Relation.from_rows(
            ALL_TYPES, [[1, 1.0, "one", True]]))

    def test_bad_magic(self):
        data = b"XXXX" + self.payload()[4:]
        with pytest.raises(SchemaError, match="magic"):
            decode_relation(data)

    def test_bad_version(self):
        data = bytearray(self.payload())
        data[4] = 99
        with pytest.raises(SchemaError, match="version"):
            decode_relation(bytes(data))

    def test_version_1_is_rejected(self):
        # version 1 lacked the per-column encoding byte; nothing writes
        # it any more, so the decoder refuses it instead of guessing
        data = bytearray(self.payload())
        data[4] = 1
        with pytest.raises(SchemaError,
                           match="^unsupported SKRL version 1$"):
            decode_relation(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(SchemaError, match="truncated"):
            decode_relation(self.payload()[:8])

    def test_truncated_column(self):
        data = self.payload()
        with pytest.raises(SchemaError, match="truncated"):
            decode_relation(data[:-3])

    def test_trailing_garbage(self):
        with pytest.raises(SchemaError, match="trailing"):
            decode_relation(self.payload() + b"\x00\x01")

    def test_unknown_dtype_code(self):
        schema = Schema([Attribute("c", DataType.INT64)])
        data = bytearray(encode_relation(Relation.empty(schema)))
        # attribute table: header(17) + name_len(2) + name(1) then code
        data[17 + 2 + 1] = 250
        with pytest.raises(SchemaError, match="dtype code"):
            decode_relation(bytes(data))


class TestDictionaryEncoding:
    """SKRL v2 dictionary coding for repetitive var-width columns."""

    def test_repetitive_strings_roundtrip_and_shrink(self):
        values = [f"status_{i % 3}" for i in range(5000)]
        schema = Schema([Attribute("s", DataType.STRING)])
        relation = Relation.from_rows(schema, [[v] for v in values])
        payload = encode_relation(relation)
        assert list(decode_relation(payload).column("s")) == values
        # 3 distinct 8-byte strings + u4 codes beats plain offsets+blob
        plain_size = 5000 * (4 + 8)
        assert len(payload) < plain_size

    def test_high_cardinality_strings_stay_plain(self):
        values = [f"unique_{i}" for i in range(3000)]
        schema = Schema([Attribute("s", DataType.STRING)])
        relation = Relation.from_rows(schema, [[v] for v in values])
        assert list(decode_relation(encode_relation(relation))
                    .column("s")) == values

    def test_repetitive_bytes_roundtrip(self):
        blobs = [bytes([i % 4]) * 50 for i in range(2000)]
        relation = Relation.from_rows(
            WITH_BYTES, [[i, blob] for i, blob in enumerate(blobs)])
        decoded = decode_relation(encode_relation(relation))
        assert list(decoded.column("blob")) == blobs

    def test_corrupt_dictionary_code_rejected(self):
        from repro.relational import io as io_module
        values = ["aa"] * 200  # forces _DICT with a 1-entry dictionary
        schema = Schema([Attribute("s", DataType.STRING)])
        payload = bytearray(encode_relation(
            Relation.from_rows(schema, [[v] for v in values])))
        assert io_module._DICT in payload  # sanity: dict path taken
        payload[-1] = 9  # last u4 code now exceeds the dictionary
        with pytest.raises(SchemaError, match="dictionary"):
            decode_relation(bytes(payload))


class TestZeroCopyDecode:
    def test_fixed_width_columns_view_the_payload(self):
        schema = Schema([Attribute("i", DataType.INT64),
                         Attribute("f", DataType.FLOAT64)])
        relation = Relation.from_rows(
            schema, [[i, float(i)] for i in range(512)])
        payload = encode_relation(relation)
        decoded = decode_relation(payload)
        for name in ("i", "f"):
            column = decoded.column(name)
            assert not column.flags.owndata  # a view into the payload
            assert np.shares_memory(
                column, np.frombuffer(payload, dtype=np.uint8))

    def test_memoryview_and_bytearray_inputs(self):
        relation = Relation.from_rows(ALL_TYPES, [[5, 2.5, "five", True]])
        payload = encode_relation(relation)
        for wrapped in (bytearray(payload), memoryview(payload),
                        memoryview(bytearray(payload))):
            assert decode_relation(wrapped).multiset_equals(relation)


class TestOffsetOverflowGuard:
    """Var-width blobs beyond 4 GiB must fail loudly, not wrap u32."""

    def test_check_varwidth_total_names_the_column(self):
        from repro.relational.io import (_MAX_VARWIDTH_BYTES,
                                         _check_varwidth_total)
        _check_varwidth_total(_MAX_VARWIDTH_BYTES, "ok")  # at the limit
        with pytest.raises(SchemaError, match="big_col"):
            _check_varwidth_total(_MAX_VARWIDTH_BYTES + 1, "big_col")
        with pytest.raises(SchemaError, match="uint32"):
            _check_varwidth_total(2**40, "big_col")

    def test_encode_raises_instead_of_wrapping(self, monkeypatch):
        # Shrink the limit so the overflow is exercised without
        # allocating gigabytes; pre-guard encoders wrapped the u32
        # offsets silently and produced a corrupt payload.
        from repro.relational import io as io_module
        monkeypatch.setattr(io_module, "_MAX_VARWIDTH_BYTES", 100)
        schema = Schema([Attribute("oversized", DataType.STRING)])
        relation = Relation.from_rows(
            schema, [["x" * 60], ["y" * 60]])  # 120 > 100 total
        with pytest.raises(SchemaError, match="oversized"):
            encode_relation(relation)

    def test_encode_bytes_column_guarded_too(self, monkeypatch):
        from repro.relational import io as io_module
        monkeypatch.setattr(io_module, "_MAX_VARWIDTH_BYTES", 100)
        relation = Relation.from_rows(
            WITH_BYTES, [[0, b"\x01" * 101]])
        with pytest.raises(SchemaError, match="blob"):
            encode_relation(relation)

    def test_under_limit_still_encodes(self, monkeypatch):
        from repro.relational import io as io_module
        monkeypatch.setattr(io_module, "_MAX_VARWIDTH_BYTES", 100)
        schema = Schema([Attribute("s", DataType.STRING)])
        relation = Relation.from_rows(schema, [["x" * 100]])
        assert decode_relation(encode_relation(relation)) \
            .multiset_equals(relation)


class TestCodecVsModeledWidth:
    def test_fixed_width_columns_close_to_model(self):
        """For numeric columns the codec matches the modeled wire width
        up to the (small, constant) header."""
        schema = Schema([Attribute("a", DataType.INT64),
                         Attribute("b", DataType.FLOAT64)])
        relation = Relation.from_rows(
            schema, [[i, float(i)] for i in range(1000)])
        real = len(encode_relation(relation))
        modeled = relation.wire_bytes()
        assert modeled == 1000 * 16
        assert 0 <= real - modeled <= 64  # header + attribute table only
