"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints `criterion N: PASS/FAIL - <measured detail>` before
asserting, so a plain pytest run shows every measured number next to
its threshold.  Tolerances are stated inline; nothing here is loosened
to force a pass -- a criterion the implementation cannot genuinely meet
fails visibly.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import accumulate

from msetzip.bench import SHA1_BITS, _rng_for, bench_fib, sha1_members
from msetzip.bits import BitString
from msetzip.container import compress, compress_tree_detail, decompress
from msetzip.distributions import (
    betabin_log2pmf_table,
    binomial_log2pmf_table,
    trinomial_log2pmf,
)
from msetzip.fibcode import fib_decode, fib_encode
from msetzip.models import FibTerminatorDetector, UniformLength
from msetzip.msettree import MultisetTree
from msetzip.rangecoder import RangeDecoder, RangeEncoder
from msetzip.treecodec import (
    BetaBinomialFamily,
    BinomialFamily,
    CodecParams,
    FixedRegime,
    GeneralRegime,
    SelfDelimitingRegime,
    encode_members,
    ideal_codelength,
)

HALF = Fraction(1, 2)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def log2_perm(members) -> float:
    """log2(N! / prod m_j!) via exact integers."""
    perm = math.factorial(len(members))
    for m in Counter(members).values():
        perm //= math.factorial(m)
    return math.log2(perm)


def test_criterion_01_sha1_experiment():
    t0 = time.perf_counter()
    n = 5000
    tree = MultisetTree.build(sha1_members(_rng_for(0, n), n))
    params = CodecParams(FixedRegime(SHA1_BITS), BinomialFamily(HALF))
    res = compress_tree_detail(tree, params)
    elapsed = time.perf_counter() - t0
    bpe = res.total_bits / n
    limit = SHA1_BITS - math.lgamma(n + 1) / math.log(2) / n
    ok = bpe <= 150.6 and elapsed <= 60.0
    report(
        1,
        ok,
        f"{bpe:.3f} bits/element (limit {limit:.2f}, threshold 150.6), "
        f"{elapsed:.1f} s <= 60 s at N = {n}",
    )


def test_criterion_02_ideal_codelength_identity():
    rng = random.Random(202)
    worst_err = 0.0
    worst_slack = -1e9
    for _ in range(200):
        length = rng.randint(1, 12)
        n = rng.randint(1, 50)
        pool = [
            "".join(rng.choice("01") for _ in range(length))
            for _ in range(rng.randint(1, max(2, n // 2)))
        ]
        members = [rng.choice(pool) for _ in range(n)]
        tree = MultisetTree.build(members)
        params = CodecParams(FixedRegime(length), BinomialFamily(HALF))

        ideal = ideal_codelength(tree, params)
        closed = n * length - log2_perm(members)
        worst_err = max(worst_err, abs(ideal - closed))

        enc = RangeEncoder()
        encode_members(tree, params, enc)
        payload = enc.finish()
        excess = payload.nbits - ideal - (2 + 0.01 * enc.symbols_coded)
        worst_slack = max(worst_slack, excess)
    ok = worst_err <= 1e-6 and worst_slack <= 0
    report(
        2,
        ok,
        f"max |ideal - closed form| = {worst_err:.2e} <= 1e-6; "
        f"max payload excess over (ideal + 2 + 0.01 decisions) = {worst_slack:.3f} bits",
    )


def test_criterion_03_brute_force_oracle():
    rng = random.Random(303)
    worst = 0.0
    for _ in range(500):
        length = rng.randint(1, 4)
        n = rng.randint(1, 6)
        members = [
            "".join(rng.choice("01") for _ in range(length)) for _ in range(n)
        ]
        tree = MultisetTree.build(members)
        ideal = ideal_codelength(tree, CodecParams(FixedRegime(length), BinomialFamily(HALF)))
        # -log2 of the multiset probability under iid fair bits
        expect = n * length - log2_perm(members)
        worst = max(worst, abs(ideal - expect))
    ok = worst <= 1e-6
    report(3, ok, f"max |ideal + log2 P(multiset)| = {worst:.2e} <= 1e-6 over 500 multisets")


def test_criterion_04_round_trips():
    rng = random.Random(404)
    families = [BinomialFamily(HALF), BetaBinomialFamily(HALF, HALF)]
    checked = 0

    def trip(members, params):
        nonlocal checked
        got = decompress(compress(members, params))
        want = sorted(BitString.from_str(m) for m in members)
        assert got == want, (members, params)
        checked += 1

    for family in families:
        fixed = CodecParams(FixedRegime(4), family)
        selfd = CodecParams(SelfDelimitingRegime(FibTerminatorDetector()), family)
        general = CodecParams(GeneralRegime(UniformLength(0, 5)), family)

        trip([], fixed)
        trip([], selfd)
        trip(["01", "011"], general)  # prefix-nested pair
        trip(["0110"] * 7, fixed)  # pure duplicates

        for _ in range(1000):
            pool = ["".join(rng.choice("01") for _ in range(4)) for _ in range(rng.randint(1, 5))]
            trip([rng.choice(pool) for _ in range(rng.randint(0, 10))], fixed)
        for _ in range(1000):
            trip([fib_encode(rng.randint(1, 40)) for _ in range(rng.randint(0, 10))], selfd)
        for _ in range(1000):
            trip(
                ["".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
                 for _ in range(rng.randint(0, 10))],
                general,
            )
    report(4, True, f"{checked} container round-trips exact across 3 regimes x 2 families")


def test_criterion_05_order_invariance():
    rng = random.Random(505)
    params = CodecParams(GeneralRegime(UniformLength(0, 4)), BetaBinomialFamily(HALF, HALF))
    stable = 0
    for _ in range(100):
        members = [
            "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(1, 12))
        ]
        blobs = set()
        for _ in range(10):
            rng.shuffle(members)
            blobs.add(compress(members, params))
        if len(blobs) == 1:
            stable += 1
    report(5, stable == 100, f"{stable}/100 multisets gave byte-identical containers over 10 orderings")


def test_criterion_06_fibonacci_code():
    table = {
        1: "11", 2: "011", 3: "0011", 4: "1011", 5: "00011", 6: "10011",
        7: "01011", 8: "000011", 9: "100011", 10: "010011", 11: "001011",
        12: "101011", 13: "0000011", 14: "1000011", 15: "0100011",
        16: "0010011", 17: "1010011", 18: "0001011", 19: "1001011",
        20: "0101011", 21: "00000011",
    }
    mismatches = [n for n, cw in table.items() if fib_encode(n) != cw]
    bad_trip = 0
    for n in range(1, 1_000_001):
        value, _ = fib_decode(fib_encode(n))
        if value != n:
            bad_trip += 1
            break
    ok = not mismatches and bad_trip == 0
    report(
        6,
        ok,
        f"codewords 1..21 exact ({len(mismatches)} mismatches); round-trip clean for n <= 10^6",
    )


def test_criterion_07_fib_benchmark():
    t0 = time.perf_counter()
    rows = {r.family: r for r in bench_fib([10_000], seed=0, k=100_000)}
    elapsed = time.perf_counter() - t0

    bb = rows["beta_binomial"]
    bino = rows["binomial"]
    dm = rows["dirichlet_multinomial"]
    wins = bb.bits_total <= bino.bits_total
    ratio = bb.bits_total / dm.bits_total
    close = ratio <= 1.10
    ok = wins and close and elapsed <= 120.0
    report(
        7,
        ok,
        f"beta-binomial {bb.bits_total:.0f} <= binomial {bino.bits_total:.0f} bits: {wins}; "
        f"beta-binomial/dirichlet-multinomial = {ratio:.3f} (threshold 1.10): {close}; "
        f"beta-binomial measured {bb.bits_per_element:.3f} vs its own ideal "
        f"{bb.ideal_bits_per_element:.3f} bits/element, so the gap to the direct code "
        f"is the model's, not the coder's; {elapsed:.1f} s <= 120 s",
    )


def test_criterion_08_distribution_correctness():
    worst_pmf = worst_sum = worst_tri = 0.0
    for n in (1, 7, 100, 1000):
        for theta in (HALF, Fraction(1, 3)):
            table = binomial_log2pmf_table(n, theta)
            probs = [2.0**lp for lp in table]
            for k, p in enumerate(probs):
                exact = math.comb(n, k) * float(theta) ** k * float(1 - theta) ** (n - k)
                worst_pmf = max(worst_pmf, abs(p - exact))
            worst_sum = max(worst_sum, abs(sum(probs) - 1.0))
        for a, b in ((0.5, 0.5), (2.0, 5.0)):
            table = betabin_log2pmf_table(n, a, b)
            probs = [2.0**lp for lp in table]
            lb = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            for k, p in enumerate(probs):
                lg = (
                    math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + math.lgamma(k + a) + math.lgamma(n - k + b) - math.lgamma(n + a + b)
                    - lb
                )
                worst_pmf = max(worst_pmf, abs(p - math.exp(lg)))
            worst_sum = max(worst_sum, abs(sum(probs) - 1.0))

    rng = random.Random(808)
    for _ in range(300):
        n = rng.randint(0, 60)
        nt = rng.randint(0, n)
        n1 = rng.randint(0, n - nt)
        tt, t1 = Fraction(rng.randint(1, 9), 10), Fraction(rng.randint(1, 9), 10)
        joint = trinomial_log2pmf(nt, n - nt - n1, n1, tt, t1)
        chained = float(
            binomial_log2pmf_table(n, tt)[nt] + binomial_log2pmf_table(n - nt, t1)[n1]
        )
        worst_tri = max(worst_tri, abs(joint - chained))

    ok = worst_pmf <= 1e-6 and worst_sum <= 1e-9 and worst_tri <= 1e-9
    report(
        8,
        ok,
        f"pmf error {worst_pmf:.2e} <= 1e-6; sum error {worst_sum:.2e} <= 1e-9; "
        f"trinomial decomposition error {worst_tri:.2e} <= 1e-9",
    )


def test_criterion_09_tree_algebra():
    rng = random.Random(909)

    merge_ok = 0
    for _ in range(100):
        xs = [bin(rng.getrandbits(4))[2:] for _ in range(rng.randint(0, 12))]
        ys = [bin(rng.getrandbits(4))[2:] for _ in range(rng.randint(0, 12))]
        if MultisetTree.build(xs).merge(MultisetTree.build(ys)) == MultisetTree.build(xs + ys):
            merge_ok += 1

    tele_ok = 0
    for _ in range(100):
        members = ["".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
                   for _ in range(rng.randint(0, 15))]
        tree = MultisetTree.build(members)
        prod = 1
        stack = [tree.root]
        while stack:
            node = stack.pop()
            rem = node.count - node.slack
            n0 = node.child0.count if node.child0 is not None else 0
            prod *= math.comb(node.count, node.slack) * math.comb(rem, n0)
            stack.extend(c for c in (node.child0, node.child1) if c is not None)
        perm = math.factorial(len(members))
        for m in Counter(members).values():
            perm //= math.factorial(m)
        if prod == perm:
            tele_ok += 1

    def counts(tree, prefixes):
        out = {}
        for p in prefixes:
            node = tree.root
            for ch in p:
                node = node.child(int(ch))
            out[p] = node.count
        return out

    fixed7 = MultisetTree.build(["000", "000", "010", "011", "101", "110", "111"])
    fixed7_ok = counts(fixed7, ["", "0", "1", "01"]) == {"": 7, "0": 4, "1": 3, "01": 2}

    varlen10 = MultisetTree.build(["0", "00", "000", "01", "10", "10", "101", "11", "110", "111"])
    varlen10_ok = (
        counts(varlen10, ["", "0", "1"]) == {"": 10, "0": 4, "1": 6}
        and varlen10.root.child(0).slack == 1
    )

    ok = merge_ok == 100 and tele_ok == 100 and fixed7_ok and varlen10_ok
    report(
        9,
        ok,
        f"merge == union {merge_ok}/100; telescoping {tele_ok}/100; "
        f"worked-example counts exact: {fixed7_ok and varlen10_ok}",
    )


def test_criterion_10_range_coder():
    rng = random.Random(1010)
    worst = -1e9
    for _ in range(10_000):
        n_sym = rng.randint(1, 25)
        seq = []
        enc = RangeEncoder()
        info = 0.0
        for _ in range(n_sym):
            size = rng.randint(2, 6)
            freqs = [rng.randint(1, 50) for _ in range(size)]
            total = sum(freqs)
            k = rng.randrange(size)
            cum = list(accumulate(freqs, initial=0))
            enc.encode_interval(cum, k)
            info -= math.log2(freqs[k] / total)
            seq.append((cum, k))
        payload = enc.finish()
        worst = max(worst, payload.nbits - info - 2)

        dec = RangeDecoder.from_bytes(payload.data)
        for cum, k in seq:
            assert dec.decode_target(cum) == k, "round-trip mismatch"
    ok = worst <= 0
    report(
        10,
        ok,
        f"10^4 interval-sequence round-trips exact; max (output - information - 2 bits) "
        f"= {worst:.3f} <= 0 even before byte-alignment allowance",
    )
