"""Container file format.

Layout (big-endian, MSB-first bit packing):

    magic   4 bytes  "MSZ1"
    version 1 byte   = 1
    regime  1 byte   0 fixed / 1 self-delimiting / 2 general
    family  1 byte   0 binomial / 1 beta-binomial
    regime params:
        fixed            u16 L
        self-delimiting  u8 detector id: 0 Fibonacci-terminator
                                         1 fixed-length (+ u16 L)
        general          u8 length-model id: 0 point    (+ u16 L)
                                             1 uniform  (+ u16 lo, u16 hi)
                                             2 geometric(+ u32/u32 p)
    family params:
        binomial         u32/u32 theta
        beta-binomial    u32/u32 alpha, u32/u32 beta
    bit stream:
        Fibonacci(N + 1)   (N + 1 so the empty multiset is encodable)
        range-coded payload (absent when N = 0)
    zero padding to a byte boundary.

Rationals are unsigned num/den pairs; a denominator of zero is
malformed.  Unknown ids are rejected, never guessed at.  Valid field
ranges are the parameter classes' own; adding a type means appending one
`_SCHEMA` row.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import Iterable

from ._frozen import Frozen
from .bits import BitReader, BitString, BitWriter
from .errors import CorruptStreamError, FormatError, TruncationError
from .fibcode import fib_length, read_fib, write_fib
from .models import (
    FibTerminatorDetector,
    FixedLengthDetector,
    GeometricLength,
    PointLength,
    UniformLength,
)
from .rangecoder import RangeDecoder, RangeEncoder
from .treecodec import (
    BetaBinomialFamily,
    BinomialFamily,
    CodecParams,
    FixedRegime,
    GeneralRegime,
    SelfDelimitingRegime,
    decode_members,
    encode_members,
)

MAGIC = b"MSZ1"
VERSION = 1

# Hard member-count capacity, enforced symmetrically by compress and
# decompress.  Coding tables and the decoded tree both scale linearly
# with N, so a count far past any practical workload is either a bug or
# a hostile stream; refusing it up front keeps corrupt containers from
# demanding gigabytes.
MAX_MEMBERS = (1 << 18) - 1

# The one map from types to ids to fields.  Each kind lists its types in
# wire-id order (append, never reorder), each type its fields as
# (attribute, wire type): "u16", "u32/u32" (a rational) or a nested kind,
# written as its id byte followed by its own fields.
_SCHEMA = {
    "regime": [
        (FixedRegime, [("length", "u16")]),
        (SelfDelimitingRegime, [("detector", "detector")]),
        (GeneralRegime, [("length_model", "length-model")]),
    ],
    "detector": [
        (FibTerminatorDetector, []),
        (FixedLengthDetector, [("length", "u16")]),
    ],
    "length-model": [
        (PointLength, [("length", "u16")]),
        (UniformLength, [("lo", "u16"), ("hi", "u16")]),
        (GeometricLength, [("p", "u32/u32")]),
    ],
    "family": [
        (BinomialFamily, [("theta", "u32/u32")]),
        (BetaBinomialFamily, [("alpha", "u32/u32"), ("beta", "u32/u32")]),
    ],
}


def _schema_row(kind: str, obj) -> tuple[int, list]:
    """(wire id, fields) of obj's type within kind."""
    for type_id, (cls, fields) in enumerate(_SCHEMA[kind]):
        if isinstance(obj, cls):
            return type_id, fields
    raise ValueError(f"{kind} {obj!r} has no container encoding")


def _write_fields(out: bytearray, fields: list, obj) -> None:
    for attr, wire in fields:
        value = getattr(obj, attr)
        if wire == "u16":
            if not 0 <= value < 1 << 16:
                raise ValueError(f"{attr} {value} does not fit in u16")
            out += struct.pack(">H", value)
        elif wire == "u32/u32":
            num, den = value.as_integer_ratio()
            if not (0 <= num < 1 << 32 and 1 <= den < 1 << 32):
                raise ValueError(f"rational {value} does not fit in u32/u32")
            out += struct.pack(">II", num, den)
        else:
            type_id, nested = _schema_row(wire, value)
            out.append(type_id)
            _write_fields(out, nested, value)


class _Parser:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise FormatError("container header truncated")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out if len(out) > 1 else out[0]

    def build(self, kind: str, type_id: int):
        """Reads a type's fields and builds it; its constructor checks them."""
        if type_id >= len(_SCHEMA[kind]):
            raise FormatError(f"unknown {kind} id {type_id}")
        cls, fields = _SCHEMA[kind][type_id]
        values = {attr: self.field(wire) for attr, wire in fields}
        try:
            return cls(**values)
        except ValueError as e:
            raise FormatError(f"bad {kind} parameters: {e}") from None

    def field(self, wire: str):
        if wire == "u16":
            return self.take(">H")
        if wire == "u32/u32":
            num, den = self.take(">II")
            if den == 0:
                raise FormatError("rational with zero denominator")
            return Fraction(num, den)
        return self.build(wire, self.take(">B"))


def serialize_header(params: CodecParams) -> bytes:
    regime_id, regime_fields = _schema_row("regime", params.regime)
    family_id, family_fields = _schema_row("family", params.family)
    out = bytearray(MAGIC + bytes([VERSION, regime_id, family_id]))
    _write_fields(out, regime_fields, params.regime)
    _write_fields(out, family_fields, params.family)
    return bytes(out)


def parse_header(data: bytes) -> tuple[CodecParams, int]:
    """Returns (params, header length in bytes)."""
    p = _Parser(data)
    magic = bytes(p.take(">4s"))
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    version = p.take(">B")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    regime_id, family_id = p.take(">BB")
    regime = p.build("regime", regime_id)
    return CodecParams(regime=regime, family=p.build("family", family_id)), p.pos


class CompressResult(Frozen):
    __slots__ = ("data", "header_bits", "n_header_bits", "payload_bits", "coded_decisions")

    def __init__(
        self,
        data: bytes,
        header_bits: int,
        n_header_bits: int,
        payload_bits: int,
        coded_decisions: int,
    ):
        self._set(data, header_bits, n_header_bits, payload_bits, coded_decisions)

    @property
    def total_bits(self) -> int:
        """Exact bit count before byte padding."""
        return self.header_bits + self.n_header_bits + self.payload_bits


def compress_tree_detail(members: Iterable, params: CodecParams) -> CompressResult:
    """The container of members with its bit accounting.  A MultisetTree
    is an iterable of its members."""
    members = list(members)
    if len(members) > MAX_MEMBERS:
        raise ValueError(f"multiset size {len(members)} exceeds the capacity {MAX_MEMBERS}")
    header = serialize_header(params)
    enc = RangeEncoder()
    encode_members(members, params, enc)  # a ModelMismatchError leaves no container
    payload = enc.finish()
    w = BitWriter()
    w.write_bytes(header)
    write_fib(w, len(members) + 1)
    if members:
        w.write_bitstring(payload)
    return CompressResult(
        data=w.getvalue(),
        header_bits=8 * len(header),
        n_header_bits=fib_length(len(members) + 1),
        payload_bits=payload.nbits if members else 0,
        coded_decisions=enc.symbols_coded,
    )


def compress(members: Iterable, params: CodecParams) -> bytes:
    return compress_tree_detail(members, params).data


def decompress(data: bytes) -> list[BitString]:
    """Members of the compressed multiset, in lexicographic order."""
    params, header_len = parse_header(data)
    reader = BitReader(data, start_bit=8 * header_len)
    try:
        n_plus_1 = read_fib(reader)
    except TruncationError as e:
        raise CorruptStreamError("container ends inside the N header") from e
    n = n_plus_1 - 1
    if n > MAX_MEMBERS:
        raise CorruptStreamError(f"member count {n} exceeds the capacity {MAX_MEMBERS}")
    return decode_members(params, n, RangeDecoder.from_reader(reader))
