"""Range coder: round-trip correctness and tightness of the output length."""

import math
import random

import pytest

from msetzip.bits import BitReader
from msetzip.rangecoder import (
    MASK,
    TOTAL_MAX,
    FreqInterval,
    RangeDecoder,
    RangeEncoder,
)


def _random_table(rng: random.Random) -> list[FreqInterval]:
    """A random frequency table as a list of per-symbol intervals."""
    n_sym = rng.randint(1, 40)
    style = rng.random()
    if style < 0.3:
        freqs = [1] * n_sym
        freqs[rng.randrange(n_sym)] = rng.randint(1, TOTAL_MAX - n_sym)
    elif style < 0.6:
        freqs = [rng.randint(1, 1000) for _ in range(n_sym)]
    else:
        freqs = [rng.randint(1, TOTAL_MAX // n_sym) for _ in range(n_sym)]
    total = sum(freqs)
    if total > TOTAL_MAX:
        scale = TOTAL_MAX / total
        freqs = [max(1, int(f * scale)) for f in freqs]
        total = sum(freqs)
    out = []
    cum = 0
    for f in freqs:
        out.append(FreqInterval(cum, f, total))
        cum += f
    return out


def _round_trip(symbols_and_tables) -> tuple[int, float]:
    """Encode, decode, compare; returns (payload bits, information bits)."""
    enc = RangeEncoder()
    info = 0.0
    for sym, table in symbols_and_tables:
        iv = table[sym]
        enc.encode_interval(iv)
        info += math.log2(iv.total / iv.freq)
    payload = enc.finish()
    dec = RangeDecoder.from_bytes(payload.data)
    for sym, table in symbols_and_tables:
        total = table[0].total
        target = dec.decode_target(total)
        got = max(i for i, iv in enumerate(table) if iv.cum <= target)
        assert got == sym
        dec.decode_commit(table[got])
    return payload.nbits, info


def test_empty_stream_is_empty():
    enc = RangeEncoder()
    payload = enc.finish()
    assert payload.nbits == 0
    assert payload.data == b""


def test_single_fair_bit():
    # symbol 0 of a fair coin costs nothing once trailing zeros drop;
    # symbol 1 costs exactly one bit
    enc = RangeEncoder()
    enc.encode_interval(FreqInterval(0, 1, 2))
    assert enc.finish().nbits == 0

    enc = RangeEncoder()
    enc.encode_interval(FreqInterval(1, 1, 2))
    out = enc.finish()
    assert out.nbits == 1
    assert out.data == b"\x80"


def test_whole_table_is_a_no_op():
    enc = RangeEncoder()
    enc.encode_interval(FreqInterval(0, 1, 2))
    state = (enc.low, enc.range)
    enc.encode_interval(FreqInterval(0, 1, 1))
    assert (enc.low, enc.range) == state


def test_known_byte_sequence_round_trips():
    # eight fair bits reproduce the input byte exactly
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    enc = RangeEncoder()
    for b in bits:
        enc.encode_interval(FreqInterval(b, 1, 2))
    payload = enc.finish()
    assert payload.nbits <= 9
    dec = RangeDecoder.from_bytes(payload.data)
    out = []
    for _ in bits:
        t = dec.decode_target(2)
        out.append(0 if t < 1 else 1)
        dec.decode_commit(FreqInterval(out[-1], 1, 2))
    assert out == bits


def test_carry_stress_top_symbol_runs():
    # repeatedly coding the top sliver pushes low toward all-ones and
    # exercises the pending-0xFF carry path
    table = [FreqInterval(0, TOTAL_MAX - 1, TOTAL_MAX), FreqInterval(TOTAL_MAX - 1, 1, TOTAL_MAX)]
    seq = [1] * 200 + [0] + [1] * 200
    nbits, info = _round_trip([(s, table) for s in seq])
    assert nbits <= info + 2


def test_interval_validation():
    enc = RangeEncoder()
    with pytest.raises(ValueError):
        enc.encode_interval(FreqInterval(0, 0, 2))
    with pytest.raises(ValueError):
        enc.encode_interval(FreqInterval(1, 2, 2))
    with pytest.raises(ValueError):
        enc.encode_interval(FreqInterval(0, 1, TOTAL_MAX + 1))


def test_decode_commit_containment_check():
    enc = RangeEncoder()
    enc.encode_interval(FreqInterval(3, 1, 4))
    payload = enc.finish()
    dec = RangeDecoder.from_bytes(payload.data)
    t = dec.decode_target(4)
    assert t == 3
    with pytest.raises(ValueError):
        dec.decode_commit(FreqInterval(0, 1, 4))


def test_finish_twice_rejected():
    enc = RangeEncoder()
    enc.finish()
    with pytest.raises(RuntimeError):
        enc.finish()
    with pytest.raises(RuntimeError):
        enc.encode_interval(FreqInterval(0, 1, 2))


def test_decoder_from_reader_offset():
    enc = RangeEncoder()
    for s in (2, 0, 1):
        enc.encode_interval(FreqInterval(s, 1, 3))
    payload = enc.finish()
    framed = b"\xde\xad" + payload.data
    reader = BitReader(framed, start_bit=16)
    dec = RangeDecoder.from_reader(reader)
    for want in (2, 0, 1):
        t = dec.decode_target(3)
        dec.decode_commit(FreqInterval(t, 1, 3))
        assert t == want


def test_randomized_round_trips_with_length_bound():
    rng = random.Random(0xC0DE)
    for _ in range(500):
        table = _random_table(rng)
        n_syms = rng.randint(0, 60)
        seq = []
        for _ in range(n_syms):
            sym = rng.randrange(len(table))
            seq.append((sym, table))
        nbits, info = _round_trip(seq)
        assert nbits <= info + 2, (nbits, info)


def test_mixed_tables_in_one_stream():
    rng = random.Random(7)
    tables = [_random_table(rng) for _ in range(10)]
    seq = []
    for _ in range(400):
        table = rng.choice(tables)
        seq.append((rng.randrange(len(table)), table))
    nbits, info = _round_trip(seq)
    assert nbits <= info + 2


def test_analytic_bits_counter():
    enc = RangeEncoder()
    enc.encode_interval(FreqInterval(0, 1, 8))
    enc.encode_interval(FreqInterval(1, 7, 8))
    assert enc.symbols_coded == 2
