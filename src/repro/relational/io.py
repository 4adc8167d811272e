"""Relation interchange: CSV for humans, a compact binary codec for wires.

Two formats live here:

* **CSV** (:func:`write_csv` / :func:`read_csv`) — a tiny,
  dependency-free interchange format so examples can persist data sets
  and users can inspect results.  The header row stores ``name:type``
  pairs so a round trip preserves the schema exactly.

* **SKRL binary** (:func:`encode_relation` / :func:`decode_relation`) —
  the columnar wire format used by the multiprocess transport
  (:mod:`repro.distributed.transport`) to ship relation payloads between
  worker processes and the coordinator.  Fixed-width columns are raw
  little-endian arrays; strings are a UTF-8 blob plus an offsets array.
  The byte counts this codec produces are the *real* wire bytes the
  transport metrics report next to the modeled
  :meth:`~repro.relational.relation.Relation.wire_bytes` numbers.

Layout of an encoded relation (all integers little-endian)::

    magic   b"SKRL"          4 bytes
    version u8               2 (the only version decoded)
    nattrs  u32
    nrows   u64
    per attribute:
        name_len u16, name utf-8 bytes, dtype_code u8
    per column (schema order):
        INT64/FLOAT64:  nrows × 8 raw bytes
        BOOL:           nrows × 1 raw bytes
        STRING/BYTES:   encoding u8 (see ``_VERSION`` below),
                        then plain — (nrows + 1) × u32 offsets and the
                        UTF-8 blob — or dictionary coded
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType

_PARSERS = {
    DataType.INT64: int,
    DataType.FLOAT64: float,
    DataType.STRING: str,
    DataType.BOOL: lambda text: text == "True",
    DataType.BYTES: bytes.fromhex,  # hex text keeps the CSV printable
}


def write_csv(relation: Relation, path: str | Path) -> None:
    """Write ``relation`` to ``path`` with a typed header row."""
    path = Path(path)
    bytes_positions = [position
                       for position, attribute in enumerate(relation.schema)
                       if attribute.dtype is DataType.BYTES]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(f"{attribute.name}:{attribute.dtype.value}"
                        for attribute in relation.schema)
        for row in relation.iter_rows():
            if bytes_positions:
                row = list(row)
                for position in bytes_positions:
                    row[position] = row[position].hex()
            writer.writerow(row)


def read_csv(path: str | Path) -> Relation:
    """Read a relation previously written by :func:`write_csv`."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty; expected a header row") from None
        attributes = []
        for cell in header:
            name, _, type_name = cell.rpartition(":")
            if not name:
                raise SchemaError(
                    f"malformed header cell {cell!r}; expected 'name:type'")
            try:
                dtype = DataType(type_name)
            except ValueError:
                raise SchemaError(f"unknown datatype {type_name!r} "
                                  f"in header cell {cell!r}") from None
            attributes.append(Attribute(name, dtype))
        schema = Schema(attributes)
        parsers = [_PARSERS[attribute.dtype] for attribute in attributes]
        rows = []
        for row in reader:
            if len(row) != len(attributes):
                raise SchemaError(
                    f"row {reader.line_num} has {len(row)} cells, "
                    f"expected {len(attributes)}")
            rows.append([parse(cell) for parse, cell in zip(parsers, row)])
    return Relation.from_rows(schema, rows)


# ---------------------------------------------------------------------------
# SKRL binary codec (the multiprocess transport's wire format)
# ---------------------------------------------------------------------------

_MAGIC = b"SKRL"
#: Version 2 prefixes each STRING/BYTES column with an encoding byte:
#: ``0`` is the plain offsets + blob layout, ``1`` is dictionary coding
#: (distinct values once + one u32 code per row).  OLAP group-key
#: columns are massively repetitive, so the dictionary both shrinks the
#: payload and turns decode into a single NumPy gather.  No other
#: version is accepted.
_VERSION = 2
_PLAIN = 0
_DICT = 1

#: Rows sampled to choose between plain and dictionary layouts.
_DICT_SAMPLE = 4096

#: Stable one-byte codes for each datatype (wire compatibility contract).
_DTYPE_CODES = {
    DataType.INT64: 0,
    DataType.FLOAT64: 1,
    DataType.STRING: 2,
    DataType.BOOL: 3,
    DataType.BYTES: 4,
}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}

_HEADER = struct.Struct("<4sBIQ")

#: Variable-width columns store (nrows + 1) uint32 byte offsets, so a
#: single column's blob must fit in 32 bits.  The encoder checks the
#: total length *before* building offsets: a silent ``cumsum`` wrap
#: would corrupt every row past the 4 GiB mark instead of failing.
_MAX_VARWIDTH_BYTES = 0xFFFFFFFF


def _column_pieces(array: np.ndarray, dtype: DataType) -> list:
    """Column values as a list of ``str``/``bytes`` pieces.

    ``str.join``/``bytes.join`` below reject foreign element types, so
    no per-element type check is needed here — the conversion fallback
    in :func:`_pack_pieces` handles mixed columns.
    """
    return array.tolist()


def _pack_pieces(pieces: list, dtype: DataType, name: str) -> bytes:
    """Offsets + blob bytes for ``pieces`` (the plain layout)."""
    if dtype is DataType.STRING:
        try:
            blob = "".join(pieces).encode("utf-8")
        except TypeError:
            pieces = [str(piece) for piece in pieces]
            blob = "".join(pieces).encode("utf-8")
        lengths = np.fromiter(map(len, pieces), dtype=np.int64,
                              count=len(pieces))
        if len(blob) != int(lengths.sum()):
            # Non-ASCII text: character counts are not byte counts.
            encoded = [piece.encode("utf-8") for piece in pieces]
            blob = b"".join(encoded)
            lengths = np.fromiter(map(len, encoded), dtype=np.int64,
                                  count=len(encoded))
    else:
        try:
            blob = b"".join(pieces)
        except TypeError:
            pieces = [bytes(piece) for piece in pieces]
            blob = b"".join(pieces)
        lengths = np.fromiter(map(len, pieces), dtype=np.int64,
                              count=len(pieces))
    _check_varwidth_total(int(lengths.sum()), name)
    offsets = np.zeros(len(pieces) + 1, dtype="<u4")
    offsets[1:] = np.cumsum(lengths)
    return offsets.tobytes() + blob


def _varwidth_column(array: np.ndarray, dtype: DataType,
                     name: str) -> list[bytes]:
    """Encoded parts (encoding byte first) for one STRING/BYTES column."""
    pieces = _column_pieces(array, dtype)
    sample = pieces[:_DICT_SAMPLE]
    try:
        repetitive = pieces and 2 * len(set(sample)) <= len(sample)
    except TypeError:  # unhashable pieces: dictionary coding impossible
        repetitive = False
    if not repetitive:
        return [bytes([_PLAIN]), _pack_pieces(pieces, dtype, name)]
    index: dict = {}
    try:
        codes = [index.setdefault(piece, len(index)) for piece in pieces]
    except TypeError:  # unhashable past the sample window
        return [bytes([_PLAIN]), _pack_pieces(pieces, dtype, name)]
    return [bytes([_DICT]),
            struct.pack("<I", len(index)),
            _pack_pieces(list(index), dtype, name),
            np.asarray(codes, dtype="<u4").tobytes()]


def _check_varwidth_total(total: int, name: str) -> int:
    if total > _MAX_VARWIDTH_BYTES:
        raise SchemaError(
            f"column {name!r} blob is {total} bytes; SKRL uint32 offsets "
            f"cap a variable-width column at {_MAX_VARWIDTH_BYTES} bytes")
    return total


def encode_relation(relation: Relation) -> bytes:
    """Serialize ``relation`` into the compact SKRL binary format.

    The encoding is deterministic (same relation → same bytes) and
    self-describing: :func:`decode_relation` recovers the schema exactly,
    including attribute order, for any row count — zero rows included.
    """
    parts = [_HEADER.pack(_MAGIC, _VERSION, len(relation.schema),
                          relation.num_rows)]
    for attribute in relation.schema:
        name_bytes = attribute.name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise SchemaError(
                f"attribute name too long to encode: {attribute.name!r}")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<B", _DTYPE_CODES[attribute.dtype]))
    for attribute in relation.schema:
        array = relation.column(attribute.name)
        if attribute.dtype in (DataType.STRING, DataType.BYTES):
            parts.extend(_varwidth_column(array, attribute.dtype,
                                          attribute.name))
        elif attribute.dtype is DataType.BOOL:
            parts.append(np.ascontiguousarray(
                array, dtype=np.uint8).tobytes())
        else:  # INT64 / FLOAT64: raw little-endian fixed width
            little = "<i8" if attribute.dtype is DataType.INT64 else "<f8"
            parts.append(np.ascontiguousarray(array).astype(
                little, copy=False).tobytes())
    return b"".join(parts)


def _unpack_pieces(view: memoryview, cursor: int, count: int,
                   dtype: DataType, name: str) -> tuple[list, int]:
    """Decode one plain offsets+blob block into a list of pieces."""
    width = (count + 1) * 4
    if cursor + width > len(view):
        raise SchemaError(f"SKRL payload truncated in column {name!r}")
    offsets = np.frombuffer(view, dtype="<u4", count=count + 1,
                            offset=cursor).astype(np.int64)
    cursor += width
    blob_len = int(offsets[-1]) if count else 0
    if cursor + blob_len > len(view):
        raise SchemaError(f"SKRL payload truncated in column {name!r}")
    blob_view = view[cursor:cursor + blob_len]
    cursor += blob_len
    bounds = offsets.tolist()
    if dtype is DataType.STRING:
        # Decode the whole blob once; when it is pure ASCII the byte
        # offsets are character offsets and each row is a C-level text
        # slice instead of a per-piece decode.
        text = str(blob_view, "utf-8")
        if len(text) == blob_len:
            pieces = [text[start:end]
                      for start, end in zip(bounds, bounds[1:])]
        else:
            pieces = [str(blob_view[start:end], "utf-8")
                      for start, end in zip(bounds, bounds[1:])]
    else:
        blob = bytes(blob_view)
        pieces = [blob[start:end] for start, end in zip(bounds, bounds[1:])]
    return pieces, cursor


def decode_relation(data: bytes | bytearray | memoryview) -> Relation:
    """Inverse of :func:`encode_relation`.

    Fixed-width columns are decoded **zero-copy**: the returned arrays
    are little-endian views over ``data``'s buffer (kept alive through
    the arrays' ``.base`` chain), so decoding a payload that lives in
    shared memory materializes no column bytes at all.  Relation columns
    are immutable by repo convention, so the read-only views are safe.

    Raises :class:`~repro.errors.SchemaError` on a malformed or truncated
    payload (wrong magic, unknown version/dtype code, short buffer).
    """
    view = memoryview(data)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    if len(view) < _HEADER.size:
        raise SchemaError("SKRL payload truncated before header")
    magic, version, nattrs, nrows = _HEADER.unpack_from(view, 0)
    if magic != _MAGIC:
        raise SchemaError(f"bad SKRL magic {bytes(magic)!r}")
    if version != _VERSION:
        raise SchemaError(f"unsupported SKRL version {version}")
    cursor = _HEADER.size
    attributes: list[Attribute] = []
    for __ in range(nattrs):
        if cursor + 2 > len(view):
            raise SchemaError("SKRL payload truncated in attribute table")
        (name_len,) = struct.unpack_from("<H", view, cursor)
        cursor += 2
        if cursor + name_len + 1 > len(view):
            raise SchemaError("SKRL payload truncated in attribute table")
        name = bytes(view[cursor:cursor + name_len]).decode("utf-8")
        cursor += name_len
        code = view[cursor]
        cursor += 1
        try:
            dtype = _CODE_DTYPES[code]
        except KeyError:
            raise SchemaError(f"unknown SKRL dtype code {code}") from None
        attributes.append(Attribute(name, dtype))
    schema = Schema(attributes)
    columns: dict[str, np.ndarray] = {}
    for attribute in attributes:
        if attribute.dtype in (DataType.STRING, DataType.BYTES):
            if cursor + 1 > len(view):
                raise SchemaError(
                    f"SKRL payload truncated in column {attribute.name!r}")
            encoding = view[cursor]
            cursor += 1
            if encoding == _PLAIN:
                pieces, cursor = _unpack_pieces(
                    view, cursor, nrows, attribute.dtype, attribute.name)
                values = np.empty(nrows, dtype=object)
                values[:] = pieces
            elif encoding == _DICT:
                if cursor + 4 > len(view):
                    raise SchemaError(
                        f"SKRL payload truncated in column "
                        f"{attribute.name!r}")
                (nuniq,) = struct.unpack_from("<I", view, cursor)
                pieces, cursor = _unpack_pieces(
                    view, cursor + 4, nuniq, attribute.dtype,
                    attribute.name)
                width = nrows * 4
                if cursor + width > len(view):
                    raise SchemaError(
                        f"SKRL payload truncated in column "
                        f"{attribute.name!r}")
                codes = np.frombuffer(view, dtype="<u4", count=nrows,
                                      offset=cursor).astype(np.int64)
                cursor += width
                if nrows and (not nuniq or int(codes.max()) >= nuniq):
                    raise SchemaError(
                        f"SKRL dictionary code out of range in column "
                        f"{attribute.name!r}")
                pool = np.empty(nuniq, dtype=object)
                pool[:] = pieces
                values = pool[codes]
            else:
                raise SchemaError(
                    f"unknown SKRL column encoding {encoding} in column "
                    f"{attribute.name!r}")
            columns[attribute.name] = values
        else:
            if attribute.dtype is DataType.BOOL:
                wire_dtype, width = "<u1", nrows
            elif attribute.dtype is DataType.INT64:
                wire_dtype, width = "<i8", nrows * 8
            else:
                wire_dtype, width = "<f8", nrows * 8
            if cursor + width > len(view):
                raise SchemaError(
                    f"SKRL payload truncated in column {attribute.name!r}")
            raw = np.frombuffer(view, dtype=wire_dtype, count=nrows,
                                offset=cursor)
            cursor += width
            if attribute.dtype is DataType.BOOL:
                # Same itemsize: a dtype view, not a copy.  The encoder
                # only ever writes 0/1 bytes, so the view is exact.
                column = raw.view(np.bool_)
            else:
                # No-op on little-endian hosts: same dtype, zero copy.
                column = raw.astype(attribute.dtype.numpy_dtype,
                                    copy=False)
            columns[attribute.name] = column
    if cursor != len(view):
        raise SchemaError(
            f"SKRL payload has {len(view) - cursor} trailing bytes")
    return Relation(schema, columns)
