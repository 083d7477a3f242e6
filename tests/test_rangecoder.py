"""Range coder: round-trip correctness and tightness of the output length."""

import math
import random
from itertools import accumulate

import pytest

from msetzip.bits import BitReader
from msetzip.errors import ModelMismatchError
from msetzip.quantize import quantize
from msetzip.rangecoder import TOTAL_MAX, RangeDecoder, RangeEncoder


def _random_table(rng: random.Random) -> list[int]:
    """A random frequency table as its cumulative frequencies."""
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
    return list(accumulate(freqs, initial=0))


def _round_trip(symbols_and_tables) -> tuple[int, float]:
    """Encode, decode, compare; returns (payload bits, information bits)."""
    enc = RangeEncoder()
    info = 0.0
    for sym, cum in symbols_and_tables:
        enc.encode_interval(cum, sym)
        info += math.log2(cum[-1] / (cum[sym + 1] - cum[sym]))
    payload = enc.finish()
    dec = RangeDecoder.from_bytes(payload.data)
    for sym, cum in symbols_and_tables:
        assert dec.decode_target(cum) == sym
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
    enc.encode_interval([0, 1, 2], 0)
    assert enc.finish().nbits == 0

    enc = RangeEncoder()
    enc.encode_interval([0, 1, 2], 1)
    out = enc.finish()
    assert out.nbits == 1
    assert out.data == b"\x80"


def test_whole_table_is_a_no_op():
    enc = RangeEncoder()
    enc.encode_interval([0, 1, 2], 0)
    state = (enc.low, enc.range)
    enc.encode_interval([0, 1], 0)
    assert (enc.low, enc.range) == state


def test_point_mass_codes_nothing():
    # a total-1 table, zero-frequency outcomes around its live one
    enc = RangeEncoder()
    enc.encode_interval([0, 3, 8], 1)
    state = (enc.low, enc.range, enc.symbols_coded)
    enc.encode_interval([0, 0, 1, 1], 1)
    assert (enc.low, enc.range, enc.symbols_coded) == state
    with pytest.raises(ModelMismatchError):
        enc.encode_interval([0, 0, 1, 1], 2)


def test_known_byte_sequence_round_trips():
    # eight fair bits reproduce the input byte exactly
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    enc = RangeEncoder()
    for b in bits:
        enc.encode_interval([0, 1, 2], b)
    payload = enc.finish()
    assert payload.nbits <= 9
    dec = RangeDecoder.from_bytes(payload.data)
    assert [dec.decode_target([0, 1, 2]) for _ in bits] == bits


def test_carry_stress_top_symbol_runs():
    # repeatedly coding the top sliver pushes low toward all-ones and
    # makes carries ripple back through runs of emitted 0xFF bytes
    table = [0, TOTAL_MAX - 1, TOTAL_MAX]
    seq = [1] * 200 + [0] + [1] * 200
    nbits, info = _round_trip([(s, table) for s in seq])
    assert nbits <= info + 2


def test_interval_validation():
    enc = RangeEncoder()
    with pytest.raises(ModelMismatchError):
        enc.encode_interval([0, 0, 2], 0)
    with pytest.raises(ModelMismatchError):
        enc.encode_interval([0, 1, 2], 2)
    with pytest.raises(ModelMismatchError):
        enc.encode_interval([0, 1, 2], -1)
    with pytest.raises(ValueError):
        enc.encode_interval([0, 1, TOTAL_MAX + 1], 0)
    with pytest.raises(ValueError):
        enc.encode_interval([0, 0], 0)
    assert enc.symbols_coded == 0


def test_decoder_never_returns_a_dead_outcome():
    cum = quantize([math.log2(0.5), -math.inf, math.log2(0.5)]).cum
    rng = random.Random(11)
    for _ in range(200):
        dec = RangeDecoder.from_bytes(rng.randbytes(rng.randint(0, 12)))
        for _ in range(20):
            assert dec.decode_target(cum) != 1


def test_finish_twice_rejected():
    enc = RangeEncoder()
    enc.finish()
    with pytest.raises(RuntimeError):
        enc.finish()
    with pytest.raises(RuntimeError):
        enc.encode_interval([0, 1, 2], 0)


def test_decoder_from_reader_offset():
    enc = RangeEncoder()
    for s in (2, 0, 1):
        enc.encode_interval([0, 1, 2, 3], s)
    payload = enc.finish()
    framed = b"\xde\xad" + payload.data
    reader = BitReader(framed, start_bit=16)
    dec = RangeDecoder.from_reader(reader)
    for want in (2, 0, 1):
        assert dec.decode_target([0, 1, 2, 3]) == want


def test_randomized_round_trips_with_length_bound():
    rng = random.Random(0xC0DE)
    for _ in range(500):
        table = _random_table(rng)
        n_syms = rng.randint(0, 60)
        seq = []
        for _ in range(n_syms):
            sym = rng.randrange(len(table) - 1)
            seq.append((sym, table))
        nbits, info = _round_trip(seq)
        assert nbits <= info + 2, (nbits, info)


def test_mixed_tables_in_one_stream():
    rng = random.Random(7)
    tables = [_random_table(rng) for _ in range(10)]
    seq = []
    for _ in range(400):
        table = rng.choice(tables)
        seq.append((rng.randrange(len(table) - 1), table))
    nbits, info = _round_trip(seq)
    assert nbits <= info + 2


def test_analytic_bits_counter():
    enc = RangeEncoder()
    enc.encode_interval([0, 1, 8], 0)
    enc.encode_interval([0, 1, 8], 1)
    assert enc.symbols_coded == 2


@pytest.mark.parametrize("seed", range(5))
def test_stream_round_trip(seed):
    # one encode_intervals call and one decode_walk, with point masses and
    # runs of the top sliver (carries) mixed in; the walk's return value
    # comes back from decode_walk
    rng = random.Random(seed)
    sliver = [0, TOTAL_MAX - 1, TOTAL_MAX]
    stream = []
    for _ in range(400):
        cum = rng.choice([_random_table(rng), [0, 1], sliver, sliver])
        stream.append((cum, rng.randrange(len(cum) - 1)))
    enc = RangeEncoder()
    enc.encode_intervals(iter(stream))
    assert enc.symbols_coded == sum(cum[-1] > 1 for cum, _ in stream)
    payload = enc.finish()

    def walk():
        got = []
        for cum, _ in stream:
            got.append((yield cum))
        return got

    got = RangeDecoder.from_bytes(payload.data).decode_walk(walk())
    assert got == [k for _, k in stream]


def test_stream_error_keeps_what_came_before():
    cum = [0, 3, 8]
    enc, ref = RangeEncoder(), RangeEncoder()
    for k in (1, 0):
        ref.encode_interval(cum, k)
    with pytest.raises(ModelMismatchError):
        enc.encode_intervals([(cum, 1), (cum, 0), ([0, 0, 2], 0), (cum, 1)])
    assert (enc.low, enc.range, enc.symbols_coded) == (ref.low, ref.range, ref.symbols_coded)
    assert enc.finish() == ref.finish()
