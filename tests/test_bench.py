"""Benchmark harness: determinism, accounting identities, CSV shape."""

import csv
import io
import math

import pytest

import msetzip.bench as bench
from msetzip.bench import (
    CSV_COLUMNS,
    SHA1_BITS,
    _rng_for,
    bench_fib,
    bench_rsha1,
    log2_factorial,
    sha1_members,
    write_csv,
)
from msetzip.fibcode import fib_length

SMALL_GRID = [16, 32, 64]


def strip_wall(records):
    return [(r.n, r.family, r.bits_total, r.bits_for_N_header, r.bits_per_element, r.ideal_bits_per_element) for r in records]


class TestDeterminism:
    def test_rsha1_repeatable_except_wall_time(self):
        a = bench_rsha1(SMALL_GRID, seed=7)
        b = bench_rsha1(SMALL_GRID, seed=7)
        assert strip_wall(a) == strip_wall(b)

    def test_fib_repeatable_except_wall_time(self):
        a = bench_fib(SMALL_GRID, seed=7, k=1000)
        b = bench_fib(SMALL_GRID, seed=7, k=1000)
        assert strip_wall(a) == strip_wall(b)

    def test_seeds_change_the_data(self):
        a = bench_fib([64], seed=1, k=1000)
        b = bench_fib([64], seed=2, k=1000)
        assert strip_wall(a) != strip_wall(b)

    def test_sha1_members_are_distinct_fixed_width(self):
        members = sha1_members(_rng_for(0, 128), 128)
        assert len(set(members)) == 128
        assert all(m.nbits == SHA1_BITS for m in members)


class TestAccounting:
    def test_rsha1_rows(self):
        records = bench_rsha1([16, 64], seed=3)
        by_n = {}
        for r in records:
            by_n.setdefault(r.n, {})[r.family] = r
        for n, rows in by_n.items():
            assert set(rows) == {"binomial", "beta_binomial", "concat"}
            concat = rows["concat"]
            assert concat.bits_total == SHA1_BITS * n
            assert concat.bits_for_N_header == 0
            limit = SHA1_BITS - log2_factorial(n) / n
            for fam in ("binomial", "beta_binomial"):
                r = rows[fam]
                assert r.bits_for_N_header == fib_length(n + 1)
                assert r.bits_total >= r.bits_for_N_header
                assert r.bits_per_element == r.bits_total / n
                assert r.ideal_bits_per_element == limit
                # measured totals can't beat the information limit
                assert r.bits_total >= limit * n - 1e-6

    def test_fib_rows(self):
        n = 64
        records = [r for r in bench_fib([n], seed=3, k=1000)]
        rows = {r.family: r for r in records}
        assert set(rows) == {"binomial", "beta_binomial", "dirichlet_multinomial", "concat"}

        rng = _rng_for(3, n)
        values = [rng.randint(1, 1000) for _ in range(n)]
        assert rows["concat"].bits_total == sum(fib_length(v) for v in values)

        for fam in ("binomial", "beta_binomial", "dirichlet_multinomial"):
            r = rows[fam]
            assert r.bits_for_N_header == fib_length(n + 1)
            assert r.bits_total >= r.bits_for_N_header
            assert math.isfinite(r.ideal_bits_per_element)

        # the whole point: multiset coding beats flat concatenation
        assert rows["beta_binomial"].bits_total < rows["concat"].bits_total

    def test_single_element_limit_is_160(self):
        (b, bb, concat) = bench_rsha1([1], seed=0)
        assert b.ideal_bits_per_element == SHA1_BITS  # log2(1!) = 0
        assert b.bits_total >= SHA1_BITS
        assert concat.bits_total == SHA1_BITS

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError):
            bench_rsha1([0])
        with pytest.raises(ValueError):
            bench_fib([-3])


class TestPinnedRows:
    """Every value of a few rows, so a change to the harness cannot move one unseen.

    Each row is (n, family, bits_total, bits_for_N_header, bits_per_element,
    ideal_bits_per_element); ints compare exactly, floats to rel 1e-12.
    """

    RSHA1 = [
        (1, "binomial", 299, 3, 299.0, 160.0),
        (1, "beta_binomial", 363, 3, 363.0, 160.0),
        (1, "concat", 160, 0, 160.0, 160.0),
        (16, "binomial", 2658, 7, 166.125, 157.23436622063232),
        (16, "beta_binomial", 2725, 7, 170.3125, 157.23436622063232),
        (16, "concat", 2560, 0, 160.0, 160.0),
        (64, "binomial", 10090, 10, 157.65625, 155.37507587591057),
        (64, "beta_binomial", 10194, 10, 159.28125, 155.37507587591057),
        (64, "concat", 10240, 0, 160.0, 160.0),
    ]
    FIB = [
        (16, "binomial", 311, 7, 19.4375, 11.046866220632335),
        (16, "beta_binomial", 369, 7, 23.0625, 10.791532125739415),
        (16, "dirichlet_multinomial", 123, 7, 7.6875, 7.22157071263203),
        (16, "concat", 221, 0, 13.8125, 13.8125),
        (64, "binomial", 695, 10, 10.859375, 8.703200875910564),
        (64, "beta_binomial", 714, 10, 11.15625, 7.993669110068595),
        (64, "dirichlet_multinomial", 355, 10, 5.546875, 5.418989383495271),
        (64, "concat", 852, 0, 13.3125, 13.3125),
    ]

    @staticmethod
    def check(records, pinned):
        assert len(records) == len(pinned)
        for r, (n, family, total, header, per_elem, ideal) in zip(records, pinned):
            assert (r.n, r.family, r.bits_total, r.bits_for_N_header) == (n, family, total, header)
            assert r.bits_per_element == pytest.approx(per_elem, rel=1e-12)
            assert r.ideal_bits_per_element == pytest.approx(ideal, rel=1e-12)

    def test_rsha1(self):
        self.check(bench_rsha1([1, 16, 64], seed=3), self.RSHA1)

    def test_fib(self):
        self.check(bench_fib([16, 64], seed=3, k=1000), self.FIB)


class TestCsv:
    def test_shape_and_formats(self):
        records = bench_fib([16], seed=1, k=500)
        buf = io.StringIO()
        write_csv(records, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + len(records)
        for row, rec in zip(rows[1:], records):
            assert row[0] == str(rec.n)
            assert row[1] == rec.family
            assert float(row[2]) == rec.bits_total
            assert row[3] == str(rec.bits_for_N_header)
            assert float(row[4]) == round(rec.bits_per_element, 6)
            assert float(row[5]) == round(rec.ideal_bits_per_element, 6)
            float(row[6])  # wall_ms parses; value is timing noise
            assert row[7] == f"{rec.decode_time * 1000.0:.3f}"
            # every coded row decodes its container; concatenation has none
            assert (float(row[7]) > 0) == (rec.family != "concat")

    def test_rsha1_rows_time_their_decode(self):
        records = bench_rsha1([16], seed=1)
        assert {r.family for r in records if r.decode_time > 0} == {"binomial", "beta_binomial"}
        assert [r.decode_time for r in records if r.family == "concat"] == [0.0]


class TestDecodeCheck:
    def test_a_tree_row_that_decodes_wrong_raises(self, monkeypatch):
        monkeypatch.setattr(bench, "decompress", lambda data: [])
        with pytest.raises(RuntimeError, match="does not decode"):
            bench_rsha1([16], seed=1)

    def test_a_dirichlet_multinomial_row_that_decodes_wrong_raises(self, monkeypatch):
        def wrong(k, n, dec, alpha):
            return bench.IntMultiset(k=k, counts=(n,) + (0,) * (k - 1))

        monkeypatch.setattr(bench, "decode_dirmult", wrong)
        with pytest.raises(RuntimeError, match="does not decode"):
            bench_fib([16], seed=1, k=500)
