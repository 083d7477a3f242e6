"""Experiment harness: random-hash and Fibonacci-codeword benchmarks.

Two experiments, each emitting one record per (N, method):

  * bench_rsha1: N distinct uniform 64-bit integers, SHA-1 hashed to
    160-bit strings, compressed as a fixed-length multiset with each
    family.  The per-element information limit is 160 - log2(N!)/N; the
    concatenation baseline sits at 160.
  * bench_fib: N uniform integers from 1..K, Fibonacci-coded into a
    prefix-free multiset, compressed with the self-delimiting tree
    codec (both families) and with the Dirichlet-multinomial direct
    code over the raw integers.  Flat concatenation of the codewords is
    the zero-compression reference.

Every tree-codec and Dirichlet-multinomial record also decodes its
container, checks it against the input, and records the time taken.
Records are deterministic given (n_values, seed) in every field except
wall_time and decode_time.  SHA-1 is used purely as a pseudo-random
160-bit generator; nothing cryptographic is implied.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, TextIO

from .bits import BitString
from .container import compress_tree_detail, decompress
from .dirmult import (
    DEFAULT_ALPHA,
    IntMultiset,
    decode_dirmult,
    encode_dirmult,
    ideal_codelength_dirmult,
)
from .distributions import LN2
from .fibcode import fib_encode, fib_length
from .models import FibTerminatorDetector
from .rangecoder import RangeDecoder, RangeEncoder
from .treecodec import (
    BetaBinomialFamily,
    BinomialFamily,
    CodecParams,
    FixedRegime,
    SelfDelimitingRegime,
    ideal_codelength,
)

SHA1_BITS = 160
DEFAULT_N_GRID = [2**k for k in range(4, 15)]
FAMILIES = (("binomial", BinomialFamily(Fraction(1, 2))), ("beta_binomial", BetaBinomialFamily()))


@dataclass(frozen=True)
class BenchRecord:
    n: int
    family: str
    bits_total: float
    bits_for_N_header: int
    ideal_bits_per_element: float
    wall_time: float = 0.0  # to compress
    decode_time: float = 0.0  # to decompress; 0 for the concatenation rows

    @property
    def bits_per_element(self) -> float:
        return self.bits_total / self.n


def log2_factorial(n: int) -> float:
    return math.lgamma(n + 1) / LN2


def _rng_for(seed: int, n: int) -> random.Random:
    # Integer-derived seed: str/tuple seeds go through hash(), which is
    # randomized per process.
    return random.Random((seed << 32) ^ n)


def _distinct_u64(rng: random.Random, n: int) -> list[int]:
    seen: set[int] = set()
    while len(seen) < n:
        seen.add(rng.getrandbits(64))
    return sorted(seen)  # fixed iteration order; the codec ignores order anyway


def sha1_members(rng: random.Random, n: int) -> list[BitString]:
    return [
        BitString(hashlib.sha1(v.to_bytes(8, "big")).digest(), SHA1_BITS)
        for v in _distinct_u64(rng, n)
    ]


def _coded(family: str, n: int, ideal_per_elem: float, encode, decode, expected) -> BenchRecord:
    """The row of one coder: times encode(), which returns (data, bits_total,
    bits_for_N_header), and decode(data), and checks the decode against expected."""
    t0 = time.perf_counter()
    data, bits_total, n_header_bits = encode()
    t1 = time.perf_counter()
    decoded = decode(data)
    t2 = time.perf_counter()
    if decoded != expected:
        raise RuntimeError(f"the {family} row does not decode to its input")
    return BenchRecord(n, family, bits_total, n_header_bits, ideal_per_elem, t1 - t0, t2 - t1)


def _tree_rows(members: list[BitString], regime, ideal_per_elem) -> list[BenchRecord]:
    """One tree-codec row per family; ideal_per_elem(params) is its limit."""
    rows = []
    for label, family in FAMILIES:
        params = CodecParams(regime=regime, family=family)

        def encode():
            result = compress_tree_detail(members, params)
            return result.data, result.total_bits, result.n_header_bits

        ideal = ideal_per_elem(params)
        rows.append(_coded(label, len(members), ideal, encode, decompress, sorted(members)))
    return rows


def bench_rsha1(
    n_values: Iterable[int] = DEFAULT_N_GRID, seed: int = 0
) -> list[BenchRecord]:
    records = []
    for n in n_values:
        if n < 1:
            raise ValueError("benchmark points need N >= 1")
        members = sha1_members(_rng_for(seed, n), n)
        limit = SHA1_BITS - log2_factorial(n) / n
        records += _tree_rows(members, FixedRegime(SHA1_BITS), lambda params: limit)
        records.append(BenchRecord(n, "concat", SHA1_BITS * n, 0, float(SHA1_BITS)))
    return records


def bench_fib(
    n_values: Iterable[int] = DEFAULT_N_GRID, seed: int = 0, k: int = 100_000
) -> list[BenchRecord]:
    records = []
    for n in n_values:
        if n < 1:
            raise ValueError("benchmark points need N >= 1")
        rng = _rng_for(seed, n)
        values = [rng.randint(1, k) for _ in range(n)]
        members = [BitString.from_str(fib_encode(v)) for v in values]
        regime = SelfDelimitingRegime(FibTerminatorDetector())
        records += _tree_rows(members, regime, lambda params: ideal_codelength(members, params) / n)

        ms = IntMultiset.from_values(values, k)
        header = fib_length(n + 1)

        def encode():
            enc = RangeEncoder()
            encode_dirmult(ms, enc, DEFAULT_ALPHA)
            payload = enc.finish()
            return payload.data, header + payload.nbits, header

        def decode(data):
            return decode_dirmult(k, n, RangeDecoder.from_bytes(data), DEFAULT_ALPHA)

        ideal = ideal_codelength_dirmult(ms, DEFAULT_ALPHA) / n
        records.append(_coded("dirichlet_multinomial", n, ideal, encode, decode, ms))
        flat = sum(fib_length(v) for v in values)
        records.append(BenchRecord(n, "concat", flat, 0, flat / n))
    return records


CSV_COLUMNS = [
    "N",
    "family",
    "bits_total",
    "bits_header",
    "bits_per_element",
    "ideal_limit",
    "wall_ms",
    "decode_ms",
]


def write_csv(records: Iterable[BenchRecord], out: TextIO) -> None:
    w = csv.writer(out)
    w.writerow(CSV_COLUMNS)
    for r in records:
        w.writerow(
            [
                r.n,
                r.family,
                f"{r.bits_total:g}",
                r.bits_for_N_header,
                f"{r.bits_per_element:.6f}",
                f"{r.ideal_bits_per_element:.6f}",
                f"{r.wall_time * 1000.0:.3f}",
                f"{r.decode_time * 1000.0:.3f}",
            ]
        )
