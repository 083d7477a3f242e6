"""The benchmark's workloads: seeded inputs and the codec calls they time.

Raw inputs are made from the seed with the standard library alone, so they
stay fixed however msetzip's own experiment harness is reshaped.  For seed s
and size n they equal that harness's inputs: the SHA-1 digests of
``msetzip.bench.sha1_members(_rng_for(s, n), n)`` and the integers
``bench_fib`` Fibonacci-codes.  That keeps the paper's numbers comparable.

msetzip itself is imported only inside ``Workload.members`` and
``Workload.codec``, so the set-up probe can make its inputs before it starts
the clock on the import.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

SHA1_BITS = 160

# The headline claim is checked at the paper's size, seed 0 (see run.py).
HEADLINE_N = 16384
HEADLINE_BITS_PER_ELEMENT = (147.44, 147.46)

WARMUP_MEMBERS = 64

FIB_K = 100_000
DIRMULT_N = 1_000
DIRMULT_K = 10_000
DUPS_DISTINCT = 256
DUPS_MEAN_LENGTH = 128


def rng_for(seed: int, n: int) -> random.Random:
    # An integer seed: str and tuple seeds go through hash(), which is
    # randomised per process.
    return random.Random((seed << 32) ^ n)


def sha1_digests(seed: int, n: int) -> list[bytes]:
    """SHA-1 of n distinct 64-bit integers, in ascending integer order."""
    rng = rng_for(seed, n)
    seen: set[int] = set()
    while len(seen) < n:
        seen.add(rng.getrandbits(64))
    return [hashlib.sha1(v.to_bytes(8, "big")).digest() for v in sorted(seen)]


def uniform_values(seed: int, n: int, k: int) -> list[int]:
    rng = rng_for(seed, n)
    return [rng.randint(1, k) for _ in range(n)]


def geometric_quantiles(count: int, mean: int) -> list[int]:
    """The count quantiles, at (i + 1/2) / count, of the geometric law on
    1, 2, ... with the given mean."""
    q = 1.0 - 1.0 / mean
    return [max(1, math.ceil(math.log1p(-(i + 0.5) / count) / math.log(q))) for i in range(count)]


def zipf_strings(seed: int, n: int, distinct: int, mean_length: int) -> list[str]:
    """n draws, Zipf(1) by rank, from `distinct` random bit strings.

    The strings' lengths, and which Zipf rank gets which length, are the
    same for every seed: the geometric quantiles in one fixed shuffled
    order.  With sampled lengths the Zipf-weighted mean length, and with it
    the work of a round trip, varied by about 20 % from seed to seed.  The
    seed picks the strings' bits and the draws.
    """
    lengths = geometric_quantiles(distinct, mean_length)
    random.Random(distinct).shuffle(lengths)
    rng = rng_for(seed, n)
    pool: list[str] = []
    seen: set[str] = set()
    for length in lengths:
        s = format(rng.getrandbits(length), f"0{length}b")
        while s in seen:
            s = format(rng.getrandbits(length), f"0{length}b")
        seen.add(s)
        pool.append(s)
    return rng.choices(pool, weights=[1.0 / r for r in range(1, distinct + 1)], k=n)


class TreeCodec:
    """The tree codec through the public entry points a user calls."""

    def __init__(self, params) -> None:
        self.params = params

    def compress(self, members) -> bytes:
        import msetzip

        return msetzip.compress(members, self.params)

    def decompress(self, blob: bytes) -> list:
        import msetzip

        return msetzip.decompress(blob)

    def reference(self, members) -> tuple[bytes, int]:
        """Container bytes and their bit count before byte padding."""
        import msetzip

        res = msetzip.compress_tree_detail(msetzip.MultisetTree.build(members), self.params)
        return res.data, res.total_bits

    def ideal_and_nodes(self, members) -> tuple[float, int]:
        """The model's ideal payload bits, and the trie's node count."""
        import msetzip

        tree = msetzip.MultisetTree.build(members)
        return msetzip.ideal_codelength(tree, self.params), tree.node_count()


class DirMultCodec:
    """The Dirichlet-multinomial slot chain over 1..k, framed with the
    Fibonacci code of N + 1 as the container frames the tree codec."""

    def __init__(self, k: int) -> None:
        self.k = k

    def _pack(self, values) -> tuple[bytes, int]:
        from msetzip import bits, dirmult, fibcode, rangecoder

        ms = dirmult.IntMultiset.from_values(values, self.k)
        enc = rangecoder.RangeEncoder()
        dirmult.encode_dirmult(ms, enc, dirmult.DEFAULT_ALPHA)
        payload = enc.finish()
        w = bits.BitWriter()
        fibcode.write_fib(w, len(values) + 1)
        w.write_bitstring(payload)
        return w.getvalue(), fibcode.fib_length(len(values) + 1) + payload.nbits

    def compress(self, values) -> bytes:
        return self._pack(values)[0]

    def decompress(self, blob: bytes) -> list[int]:
        from msetzip import bits, dirmult, fibcode, rangecoder

        reader = bits.BitReader(blob)
        n = fibcode.read_fib(reader) - 1
        dec = rangecoder.RangeDecoder.from_reader(reader)
        ms = dirmult.decode_dirmult(self.k, n, dec, dirmult.DEFAULT_ALPHA)
        return [v for v, c in enumerate(ms.counts, 1) for _ in range(c)]

    def reference(self, values) -> tuple[bytes, int]:
        return self._pack(values)

    def ideal_and_nodes(self, values) -> tuple[float, int]:
        from msetzip import dirmult

        ms = dirmult.IntMultiset.from_values(values, self.k)
        return dirmult.ideal_codelength_dirmult(ms, dirmult.DEFAULT_ALPHA), 0


def _sha1_members(raw: list[bytes]) -> list:
    from msetzip import BitString

    return [BitString(d, SHA1_BITS) for d in raw]


def _fib_members(raw: list[int]) -> list:
    from msetzip import BitString, fib_encode

    return [BitString.from_str(fib_encode(v)) for v in raw]


def _string_members(raw: list[str]) -> list:
    from msetzip import BitString

    made: dict = {}
    return [made.get(s) or made.setdefault(s, BitString.from_str(s)) for s in raw]


def _rsha1_codec():
    import msetzip

    return TreeCodec(
        msetzip.CodecParams(msetzip.FixedRegime(SHA1_BITS), msetzip.BinomialFamily(Fraction(1, 2)))
    )


def _fib_betabin_codec():
    import msetzip

    return TreeCodec(
        msetzip.CodecParams(
            msetzip.SelfDelimitingRegime(msetzip.FibTerminatorDetector()),
            msetzip.BetaBinomialFamily(),
        )
    )


def _dups_codec():
    import msetzip

    return TreeCodec(
        msetzip.CodecParams(
            msetzip.GeneralRegime(msetzip.GeometricLength(Fraction(1, DUPS_MEAN_LENGTH))),
            msetzip.BetaBinomialFamily(),
        )
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    raw: Callable[[int, int], list]   # (seed, n) -> inputs, standard library only
    members: Callable[[list], list]   # raw inputs -> what the codec takes
    codec: Callable[[], object]       # -> TreeCodec or DirMultCodec

    def inputs(self, seed: int, n: int | None = None) -> list:
        return self.raw(seed, self.n if n is None else n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rsha1-binomial",
            "distinct SHA-1 strings, fixed regime, binomial 1/2: the paper's headline; "
            "trie walk and range coder dominate",
            1024,
            sha1_digests,
            _sha1_members,
            _rsha1_codec,
        ),
        Workload(
            "fib-betabin",
            "Fibonacci codewords, self-delimiting regime, Beta-binomial: the only "
            "end-detector workload; the paper's second experiment",
            10_000,
            lambda seed, n: uniform_values(seed, n, FIB_K),
            _fib_members,
            _fib_betabin_codec,
        ),
        Workload(
            "dups-general",
            "Zipf duplicates of 256 geometric-length strings, general regime: the only "
            "termination-count workload; trie build and enumeration dominate",
            32_768,
            lambda seed, n: zipf_strings(seed, n, DUPS_DISTINCT, DUPS_MEAN_LENGTH),
            _string_members,
            _dups_codec,
        ),
        Workload(
            "fib-dirmult",
            "uniform integers coded by the Dirichlet-multinomial slot chain: no trie, "
            "no table cache; uncached table builds dominate",
            DIRMULT_N,
            lambda seed, n: uniform_values(seed, n, DIRMULT_K),
            list,
            lambda: DirMultCodec(DIRMULT_K),
        ),
    )
}
