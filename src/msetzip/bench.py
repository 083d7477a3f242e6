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


@dataclass(frozen=True)
class BenchRecord:
    n: int
    family: str
    bits_total: float
    bits_for_N_header: int
    bits_per_element: float
    ideal_bits_per_element: float
    wall_time: float  # to compress
    decode_time: float  # to decompress; 0 for the concatenation rows


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


def _tree_record(
    members: list[BitString], params: CodecParams, family_label: str, ideal_per_elem: float
) -> BenchRecord:
    n = len(members)
    t0 = time.perf_counter()
    result = compress_tree_detail(members, params)
    wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    decoded = decompress(result.data)
    decode_wall = time.perf_counter() - t0
    if decoded != sorted(members):
        raise RuntimeError(f"the {family_label} container does not decode to its input")
    return BenchRecord(
        n=n,
        family=family_label,
        bits_total=result.total_bits,
        bits_for_N_header=result.n_header_bits,
        bits_per_element=result.total_bits / n,
        ideal_bits_per_element=ideal_per_elem,
        wall_time=wall,
        decode_time=decode_wall,
    )


def bench_rsha1(
    n_values: Iterable[int] = DEFAULT_N_GRID, seed: int = 0
) -> list[BenchRecord]:
    records = []
    for n in n_values:
        if n < 1:
            raise ValueError("benchmark points need N >= 1")
        members = sha1_members(_rng_for(seed, n), n)
        limit = SHA1_BITS - log2_factorial(n) / n
        for label, family in (
            ("binomial", BinomialFamily(Fraction(1, 2))),
            ("beta_binomial", BetaBinomialFamily()),
        ):
            params = CodecParams(regime=FixedRegime(SHA1_BITS), family=family)
            records.append(_tree_record(members, params, label, limit))
        records.append(
            BenchRecord(
                n=n,
                family="concat",
                bits_total=SHA1_BITS * n,
                bits_for_N_header=0,
                bits_per_element=float(SHA1_BITS),
                ideal_bits_per_element=float(SHA1_BITS),
                wall_time=0.0,
                decode_time=0.0,
            )
        )
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

        for label, family in (
            ("binomial", BinomialFamily(Fraction(1, 2))),
            ("beta_binomial", BetaBinomialFamily()),
        ):
            params = CodecParams(
                regime=SelfDelimitingRegime(FibTerminatorDetector()), family=family
            )
            ideal = ideal_codelength(members, params) / n
            records.append(_tree_record(members, params, label, ideal))

        ms = IntMultiset.from_values(values, k)
        t0 = time.perf_counter()
        enc = RangeEncoder()
        encode_dirmult(ms, enc, DEFAULT_ALPHA)
        payload = enc.finish()
        wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        decoded = decode_dirmult(k, n, RangeDecoder.from_bytes(payload.data), DEFAULT_ALPHA)
        decode_wall = time.perf_counter() - t0
        if decoded != ms:
            raise RuntimeError("the dirichlet_multinomial payload does not decode to its input")
        total = fib_length(n + 1) + payload.nbits
        records.append(
            BenchRecord(
                n=n,
                family="dirichlet_multinomial",
                bits_total=total,
                bits_for_N_header=fib_length(n + 1),
                bits_per_element=total / n,
                ideal_bits_per_element=ideal_codelength_dirmult(ms, DEFAULT_ALPHA) / n,
                wall_time=wall,
                decode_time=decode_wall,
            )
        )

        flat = sum(fib_length(v) for v in values)
        records.append(
            BenchRecord(
                n=n,
                family="concat",
                bits_total=flat,
                bits_for_N_header=0,
                bits_per_element=flat / n,
                ideal_bits_per_element=flat / n,
                wall_time=0.0,
                decode_time=0.0,
            )
        )
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
