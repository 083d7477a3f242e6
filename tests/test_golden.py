"""Golden MSZ1 containers: the wire format pinned byte for byte.

Each case compresses a fixed multiset under fixed params and compares the
container with the bytes recorded when the format was pinned: in full hex
for small containers, as (length, sha256) for large ones.  A mismatch
means the bytes on the wire changed, so files written earlier would no
longer decode to what they encoded.  Every golden container must also
decompress back to its multiset.

Inputs come from literal lists or from ``random.Random.getrandbits``,
whose output for an integer seed is stable across Python versions.
"""

import hashlib
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest

from msetzip.container import compress, decompress
from msetzip.fibcode import fib_encode
from msetzip.models import (
    FibTerminatorDetector,
    FixedLengthDetector,
    GeometricLength,
    PointLength,
    UniformLength,
)
from msetzip.treecodec import (
    BetaBinomialFamily,
    BinomialFamily,
    CodecParams,
    FixedRegime,
    GeneralRegime,
    SelfDelimitingRegime,
)

FAMILIES = {
    "binom-1/2": BinomialFamily(),
    "binom-1/3": BinomialFamily(Fraction(1, 3)),
    "betabin-1/2,1/2": BetaBinomialFamily(),
    "betabin-2,5": BetaBinomialFamily(Fraction(2), Fraction(5)),
}

BYTE_MEMBERS = ["00000000", "00000001", "01101001", "10110011", "10110011", "11111111"]
FIB_MEMBERS = [fib_encode(v) for v in (1, 2, 3, 5, 8, 13, 21, 100, 100, 1000)]
VARLEN_MEMBERS = ["1", "01", "110", "0010", "0010", "11010101", "1001110110"]

# name -> (regime, members it codes)
REGIMES = {
    "fixed8": (FixedRegime(8), BYTE_MEMBERS),
    "fib": (SelfDelimitingRegime(FibTerminatorDetector()), FIB_MEMBERS),
    "fixlen8": (SelfDelimitingRegime(FixedLengthDetector(8)), BYTE_MEMBERS),
    "geom1/4": (GeneralRegime(GeometricLength(Fraction(1, 4))), VARLEN_MEMBERS),
    "uniform0-10": (GeneralRegime(UniformLength(0, 10)), VARLEN_MEMBERS + ["", ""]),
    "point8": (GeneralRegime(PointLength(8)), BYTE_MEMBERS),
}


def _bits(rng: random.Random, nbits: int) -> str:
    return format(rng.getrandbits(nbits), f"0{nbits}b") if nbits else ""


def _random_fixed(seed: int, n: int, length: int) -> list[str]:
    rng = random.Random(seed)
    return [_bits(rng, length) for _ in range(n)]


def _random_fib(seed: int, n: int) -> list[str]:
    rng = random.Random(seed)
    return [fib_encode(rng.getrandbits(17) % 100_000 + 1) for _ in range(n)]


def _skewed_duplicates(seed: int, n: int, distinct: int) -> list[str]:
    """n draws from `distinct` strings of length 1..32, skewed to the first."""
    rng = random.Random(seed)
    pool = [_bits(rng, rng.getrandbits(5) + 1) for _ in range(distinct)]
    return [pool[min(rng.getrandbits(6), rng.getrandbits(6)) % distinct] for _ in range(n)]


def _zipf_duplicates(seed: int, n: int, distinct: int) -> list[str]:
    """n draws, Zipf(1) by rank, from `distinct` strings of 1..256 bits,
    with integer weights so the draws need getrandbits alone."""
    rng = random.Random(seed)
    pool = [_bits(rng, rng.getrandbits(8) + 1) for _ in range(distinct)]
    cum = list(accumulate(2**20 // rank for rank in range(1, distinct + 1)))
    return [pool[bisect_right(cum, rng.getrandbits(32) % cum[-1])] for _ in range(n)]


def _sha1_members(seed: int, n: int) -> list[str]:
    """The SHA-1 benchmark's inputs: SHA-1 of n distinct random 64-bit ints."""
    rng = random.Random((seed << 32) ^ n)
    seen: set[int] = set()
    while len(seen) < n:
        seen.add(rng.getrandbits(64))
    digests = (hashlib.sha1(v.to_bytes(8, "big")).digest() for v in sorted(seen))
    return [format(int.from_bytes(d, "big"), "0160b") for d in digests]


def _cases() -> dict:
    cases = {}
    for rname, (regime, members) in REGIMES.items():
        for fname, family in FAMILIES.items():
            cases[f"{rname}/{fname}"] = (members, CodecParams(regime, family))
        cases[f"{rname}/N=0"] = ([], CodecParams(regime, FAMILIES["binom-1/3"]))
        for fname in ("binom-1/3", "betabin-2,5"):
            cases[f"{rname}/N=1/{fname}"] = (members[-1:], CodecParams(regime, FAMILIES[fname]))
    betabin = FAMILIES["betabin-2,5"]
    cases["fixed8/duplicates"] = (
        ["10110011"] * 200 + ["00000000"] * 50 + ["11111110"],
        CodecParams(FixedRegime(8), betabin),
    )
    cases["fib/duplicates"] = (
        [fib_encode(4)] * 300 + [fib_encode(89)] * 7,
        CodecParams(SelfDelimitingRegime(FibTerminatorDetector()), FAMILIES["binom-1/3"]),
    )
    cases["uniform0-10/duplicates"] = (
        [""] * 40 + ["0110"] * 120 + ["0110110"] * 3 + ["1"] * 25,
        CodecParams(GeneralRegime(UniformLength(0, 10)), betabin),
    )
    cases["fixed64/random-1000"] = (
        _random_fixed(1, 1000, 64),
        CodecParams(FixedRegime(64), FAMILIES["binom-1/2"]),
    )
    cases["fib/random-1500"] = (
        _random_fib(2, 1500),
        CodecParams(SelfDelimitingRegime(FibTerminatorDetector()), FAMILIES["betabin-1/2,1/2"]),
    )
    cases["geom1/16/skewed-duplicates-2000"] = (
        _skewed_duplicates(3, 2000, 48),
        CodecParams(GeneralRegime(GeometricLength(Fraction(1, 16))), betabin),
    )
    # Chains that hold a single distinct member, coded to its end in one go.
    cases["fixed64/N=1/carry-through-ff"] = (
        # its coding carries into two 0xFF bytes already written
        ["1000000000000101110101110111000110010100111100011011101010111001"],
        CodecParams(FixedRegime(64), BinomialFamily(Fraction(9, 10))),
    )
    cases["fixed16/duplicate-chain"] = (
        ["0110100111010010"] * 5 + ["1011001110001111"],
        CodecParams(FixedRegime(16), FAMILIES["binom-1/3"]),
    )
    cases["fixed12/point-mass"] = (
        ["1" * 12] * 3,
        CodecParams(FixedRegime(12), BinomialFamily(Fraction(1))),
    )
    cases["geom1/4/N=1/long"] = (
        ["0010110111010"],
        CodecParams(GeneralRegime(GeometricLength(Fraction(1, 4))), FAMILIES["binom-1/3"]),
    )
    cases["uniform0-10/N=1/long"] = (
        ["1101001011"],
        CodecParams(GeneralRegime(UniformLength(0, 10)), FAMILIES["binom-1/2"]),
    )
    cases["fib/N=1/long"] = (
        [fib_encode(123456)],
        CodecParams(SelfDelimitingRegime(FibTerminatorDetector()), FAMILIES["betabin-1/2,1/2"]),
    )
    cases["fixed160/sha1-1024"] = (
        _sha1_members(0, 1024),
        CodecParams(FixedRegime(160), FAMILIES["binom-1/2"]),
    )
    # Long runs under n = 1 tables that are not dyadic, so the top outcome's
    # share of the division remainder shows in the bytes.
    for fname in ("binom-1/3", "betabin-2,5"):
        cases[f"fixed160/sha1-256/{fname}"] = (
            _sha1_members(0, 256),
            CodecParams(FixedRegime(160), FAMILIES[fname]),
        )
    head, other = _sha1_members(1, 2)
    cases["fixed160/duplicate-run-3"] = (
        [head] * 3 + [other],
        CodecParams(FixedRegime(160), FAMILIES["binom-1/3"]),
    )
    # Runs of up to 2048 bits under the equiprobable table [0, 1, 2], which
    # binomial 1/2 and BetaBin(1/2, 1/2) both give at n = 1.  Coding the
    # seven members carries into bytes already written, some through a 0xFF
    # byte; a lone member's run starts on the coder's initial range.
    long_runs = _random_fixed(4, 5, 2048) + ["1" * 2048, "0" * 2048]
    for fname in ("binom-1/2", "betabin-1/2,1/2"):
        params = CodecParams(FixedRegime(2048), FAMILIES[fname])
        cases[f"fixed2048/random-7/{fname}"] = (long_runs, params)
    for bit, name in (("1", "ones"), ("0", "zeros")):
        params = CodecParams(FixedRegime(2048), FAMILIES["binom-1/2"])
        cases[f"fixed2048/N=1/{name}"] = ([bit * 2048], params)
    # General-regime members with many copies: below its last branch each
    # copy set codes a termination count of 0 and a split of 0 or all of
    # them at every depth.  Under UniformLength(100, 300) the termination
    # table is a point mass below depth 100, then changes with every depth
    # and is never dyadic; the 300-bit member reaches the depth cap.
    rng = random.Random(6)
    copies = {150: 1, 181: 40, 233: 7, 267: 23, 298: 2, 300: 13}
    cases["uniform100-300/long-duplicates"] = (
        [m for nbits, c in copies.items() for m in [_bits(rng, nbits)] * c],
        CodecParams(GeneralRegime(UniformLength(100, 300)), FAMILIES["binom-1/3"]),
    )
    # The general-regime benchmark's configuration, at a smaller size.
    cases["geom1/128/zipf-2000"] = (
        _zipf_duplicates(7, 2000, 32),
        CodecParams(GeneralRegime(GeometricLength(Fraction(1, 128))), FAMILIES["betabin-1/2,1/2"]),
    )
    return cases


CASES = _cases()

# name -> container hex, or (container length, sha256 hex) when large
GOLDEN = {
    "fib/N=0": "4d535a31010100000000000100000003c0",
    "fib/N=1/betabin-2,5": "4d535a310101010000000002000000010000000500000001645c",
    "fib/N=1/binom-1/3": "4d535a3101010000000000010000000362dc",
    "fib/N=1/long": "4d535a31010101000000000100000002000000010000000260092018",
    "fib/betabin-1/2,1/2": "4d535a3101010100000000010000000200000001000000022cc9d91b18af74",
    "fib/betabin-2,5": "4d535a3101010100000000020000000100000005000000012cb2787eda377c",
    "fib/binom-1/2": "4d535a310101000000000001000000022c010c379b02e2",
    "fib/binom-1/3": "4d535a310101000000000001000000032c19d7c061c4f8",
    "fib/duplicates": "4d535a31010100000000000100000003549fffffbffff80004fb186692f62c2e00e9bffff0",
    "fib/random-1500": (2052, "b967a9cfcfd30a50d0a559d37aecda4043079c811965e940e8fbbaecc5096e00"),
    "fixed12/point-mass": "4d535a31010000000c0000000100000001b0",
    "fixed16/duplicate-chain": "4d535a31010000001000000001000000035acf2e17de5e92001fbfbf139898",
    "fixed160/duplicate-run-3": (104, "cd3b604dd8aa5bd42203f4f152f86875434bc3a6ce818f8a355f1cb91357fe44"),
    "fixed160/sha1-1024": (19403, "296396050073a6e9559211202ede9bf4e8ba9ccc1845db449bdeaafe09a86cdd"),
    "fixed160/sha1-256/betabin-2,5": (5666, "4043c0325ed859d700ef6638a343bc30d0f7bde086b773cfacde03d80c5d0a3b"),
    "fixed160/sha1-256/binom-1/3": (5364, "f7f54a8e33cd2753b6da71e041e308b33d15daf065e29ee3a749382a6e63b841"),
    "fixed2048/N=1/ones": (274, "d68b9af441a36f9e862d09ff52500330ceac93df593ed2dd9c735efb81df72ea"),
    "fixed2048/N=1/zeros": (274, "08a6f519ddd84a6a07a79e16daae19ef8658506f015a6567be0ae7b156eaa8ac"),
    "fixed2048/random-7/betabin-1/2,1/2": (1817, "92de9d73b56424843f4a7d81c15a218f2dc893ae970e541c1993f6b2efc3cbd7"),
    "fixed2048/random-7/binom-1/2": (1809, "3028491a2c1ea7344d6f59e117c5fd24fbfbd1fde9a71a1f5cd75c5c76753afa"),
    "fixed64/N=1/carry-through-ff": "4d535a310100000040000000090000000a6333334000025d7a8084e437f2cf88",
    "fixed64/random-1000": (6953, "2218eef55eef5830e7fdf03bf49c46bd6b6ba77034484c7ba3bfd44a85d75ce4"),
    "fixed8/N=0": "4d535a3101000000080000000100000003c0",
    "fixed8/N=1/betabin-2,5": "4d535a310100010008000000020000000100000005000000017fffc0",
    "fixed8/N=1/binom-1/3": "4d535a31010000000800000001000000037fff",
    "fixed8/betabin-1/2,1/2": "4d535a310100010008000000010000000200000001000000025bdaa63b3480",
    "fixed8/betabin-2,5": "4d535a310100010008000000020000000100000005000000015e56eae7154d80",
    "fixed8/binom-1/2": "4d535a31010000000800000001000000025b1022715cf8",
    "fixed8/binom-1/3": "4d535a31010000000800000001000000035df9733c88ba",
    "fixed8/duplicates": "4d535a31010001000800000002000000010000000500000001941ffc0737fff803f8c86ecd5f6c8e8b1e9d3bdcbbfe2eed4fff",
    "fixlen8/N=0": "4d535a310101000100080000000100000003c0",
    "fixlen8/N=1/betabin-2,5": "4d535a31010101010008000000020000000100000005000000017fffc0",
    "fixlen8/N=1/binom-1/3": "4d535a3101010001000800000001000000037fff",
    "fixlen8/betabin-1/2,1/2": "4d535a31010101010008000000010000000200000001000000025bdaa63b3480",
    "fixlen8/betabin-2,5": "4d535a31010101010008000000020000000100000005000000015e56eae7154d80",
    "fixlen8/binom-1/2": "4d535a3101010001000800000001000000025b1022715cf8",
    "fixlen8/binom-1/3": "4d535a3101010001000800000001000000035df9733c88ba",
    "geom1/128/zipf-2000": (2977, "868b0d8adad8308f5a5a1b098040cd6bc7c095048937da8c7b452b415bd51469"),
    "geom1/16/skewed-duplicates-2000": (1442, "560ccc80ce0eb6c91db8cf74ab73486030e5c647e17c03905404cbd573f549b5"),
    "geom1/4/N=0": "4d535a310102000200000001000000040000000100000003c0",
    "geom1/4/N=1/betabin-2,5": "4d535a3101020102000000010000000400000002000000010000000500000001716962",
    "geom1/4/N=1/binom-1/3": "4d535a3101020002000000010000000400000001000000037718d0",
    "geom1/4/N=1/long": "4d535a3101020002000000010000000400000001000000036631b8",
    "geom1/4/betabin-1/2,1/2": "4d535a31010201020000000100000004000000010000000200000001000000020c6d4f6fe9a73f98",
    "geom1/4/betabin-2,5": "4d535a31010201020000000100000004000000020000000100000005000000010ca68ae401964f40",
    "geom1/4/binom-1/2": "4d535a3101020002000000010000000400000001000000020e2252c79a8260",
    "geom1/4/binom-1/3": "4d535a3101020002000000010000000400000001000000030f6b9acc05ae1e",
    "point8/N=0": "4d535a310102000000080000000100000003c0",
    "point8/N=1/betabin-2,5": "4d535a310102010000080000000200000001000000050000000174834a",
    "point8/N=1/binom-1/3": "4d535a3101020000000800000001000000037fff",
    "point8/betabin-1/2,1/2": "4d535a310102010000080000000100000002000000010000000258d4d8f011b31d95f2b4c0",
    "point8/betabin-2,5": "4d535a3101020100000800000002000000010000000500000001595ec406629d4274587880",
    "point8/binom-1/2": "4d535a3101020000000800000001000000025b1022715cf8",
    "point8/binom-1/3": "4d535a3101020000000800000001000000035df9733c88ba",
    "uniform0-10/N=0": "4d535a31010200010000000a0000000100000003c0",
    "uniform0-10/N=1/betabin-2,5": "4d535a31010201010000000a0000000200000001000000050000000178",
    "uniform0-10/N=1/binom-1/3": "4d535a31010200010000000a00000001000000037e",
    "uniform0-10/N=1/long": "4d535a31010200010000000a0000000100000002767880",
    "uniform0-10/betabin-1/2,1/2": "4d535a31010201010000000a000000010000000200000001000000024d4b75c9f79eb68c",
    "uniform0-10/betabin-2,5": "4d535a31010201010000000a000000020000000100000005000000014e0822d209bab660",
    "uniform0-10/binom-1/2": "4d535a31010200010000000a00000001000000024f928e75c0fa30",
    "uniform0-10/binom-1/3": "4d535a31010200010000000a00000001000000034fc3714267f329",
    "uniform0-10/duplicates": "4d535a31010201010000000a000000020000000100000005000000012936052acd5b406f772de1c812077a3e23a39818",
    "uniform100-300/long-duplicates": (2052, "795b59da71c1b36e5fc2b8e63b016856413ac27173ba7e21b3fa1e76a49371d4"),
}


def test_every_case_has_a_vector():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_container_bytes(name):
    members, params = CASES[name]
    blob = compress(members, params)
    want = GOLDEN[name]
    if isinstance(want, str):
        assert blob.hex() == want
    else:
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == want
    assert sorted(m.to_str() for m in decompress(blob)) == sorted(members)
