"""Range coder: round-trip correctness and tightness of the output length."""

import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msetzip.bits import BitReader, BitWriter
from msetzip.errors import ModelMismatchError
from msetzip.quantize import quantize
from msetzip.rangecoder import MASK, TOP, TOTAL_MAX, RangeDecoder, RangeEncoder


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


@pytest.mark.parametrize("cum", [[0, 1, TOTAL_MAX + 1], [0, 0]])
def test_decoded_table_validates_its_total(cum):
    dec = RangeDecoder.from_bytes(b"\x12\x34")
    state = dec.value, dec.range
    with pytest.raises(ValueError):
        dec.decode_target(cum)
    assert (dec.value, dec.range) == state


def test_decoder_never_returns_a_dead_outcome():
    cum = quantize([math.log2(0.5), -math.inf, math.log2(0.5)])
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


# --- runs: many decisions under one table in one stream item ----------------

RUN_TABLES = [
    [0, 1, 2],
    [0, 11184811, 16777216],  # Binomial(1, 1/3)
    [0, 5991863, 8388608],  # BetaBin(1, 2, 5)
    [0, 1, TOTAL_MAX],  # slivers at either end; runs of outcome 1 carry through 0xFF bytes
    [0, TOTAL_MAX - 1, TOTAL_MAX],
    [0, 0, 1],  # point masses
    [0, 1, 1],
    [0, 0, TOTAL_MAX],  # dead outcome 0
    [0, 7, 7],  # dead outcome 1
    [0, TOTAL_MAX, TOTAL_MAX],
]

# tables with other than two outcomes, which no run may have
NOT_RUN_TABLES = [
    [0, 3, 5, 11, 20],  # n = 3
    list(quantize([math.log2(p) for p in (0.2, 0.3, 0.1, 0.15, 0.25)])),
    [0, 1],  # a point mass with one outcome
    [0, 0, 1, 1],  # a point mass on a middle outcome
]


def _run(cum, bits: str) -> tuple:
    """The run item of bits, written as '0'/'1' text: ((cum, count), int)."""
    return (cum, len(bits)), int(bits, 2)


def _decisions_of(cum, bits: str) -> list:
    """A run's decisions one by one: outcome 0 per '0', the top per '1'."""
    return [(cum, len(cum) - 2 if bit == "1" else 0) for bit in bits]


def _coded(stream) -> tuple:
    """(error type, low, range, symbols_coded, payload) of coding stream."""
    enc = RangeEncoder()
    error = None
    try:
        enc.encode_intervals(stream)
    except ModelMismatchError as e:
        error = type(e)
    return error, enc.low, enc.range, enc.symbols_coded, enc.finish()


def _lead(seed: int) -> list:
    """A few generic decisions that put the coder in a seed-chosen state."""
    rng = random.Random(seed)
    tables = [_random_table(rng) for _ in range(rng.randint(0, 6))]
    return [(cum, rng.randrange(len(cum) - 1)) for cum in tables]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    cum=st.sampled_from(RUN_TABLES),
    bits=st.text("01", min_size=1, max_size=400),
)
def test_run_codes_as_its_decisions(seed, cum, bits):
    lead = _lead(seed)
    tail = [([0, 2, 5], 1)]  # coded only if the run raised nothing
    run = _coded(lead + [_run(cum, bits)] + tail)
    assert run == _coded(lead + _decisions_of(cum, bits) + tail)


def test_run_carries_through_ff_bytes(monkeypatch):
    carries = []
    carry = RangeEncoder._carry
    monkeypatch.setattr(RangeEncoder, "_carry", lambda self: carries.append(1) or carry(self))
    sliver = [0, TOTAL_MAX - 1, TOTAL_MAX]
    bits = "1" * 200 + "0" + "1" * 200
    run = _coded([_run(sliver, bits)])
    assert carries  # a carry rippled back inside the run
    assert run == _coded(_decisions_of(sliver, bits))


def test_run_error_keeps_what_came_before():
    # the run codes up to its first impossible outcome, then raises, and
    # nothing after it is coded; that outcome may sit in any 30-bit
    # stretch of the run's int
    for cum, bits, possible in (
        ([0, 0, 8], "11101", "111"),  # outcome 0 is dead
        ([0, 8, 8], "00010", "000"),  # outcome 1 is dead
        *(([0, 0, 8], "1" * n + "0" + "10" * 20, "1" * n) for n in (29, 30, 31, 60, 99)),
        *(([0, 8, 8], "0" * n + "1" + "01" * 20, "0" * n) for n in (29, 30, 31, 60, 99)),
    ):
        enc, ref = RangeEncoder(), RangeEncoder()
        ref.encode_intervals([([0, 3, 8], 1)] + _decisions_of(cum, possible))
        with pytest.raises(ModelMismatchError):
            enc.encode_intervals([([0, 3, 8], 1), _run(cum, bits), ([0, 3, 8], 0)])
        assert (enc.low, enc.range, enc.symbols_coded) == (ref.low, ref.range, ref.symbols_coded)
        assert enc.finish() == ref.finish()


def test_run_validates_its_table():
    enc = RangeEncoder()
    with pytest.raises(ValueError):
        enc.encode_intervals([_run([0, 1, TOTAL_MAX + 1], "01")])
    with pytest.raises(ValueError):
        enc.encode_intervals([_run([0, 0], "0")])
    assert enc.symbols_coded == 0


@pytest.mark.parametrize(
    "count,bits,error",
    [
        (0, 0, ValueError),
        (-1, 0, ValueError),
        (3, 8, ValueError),
        (3, -1, ValueError),
        (160, 1 << 160, ValueError),
        (2, "01", TypeError),  # the bits are an int, never text
    ],
)
def test_malformed_run_codes_nothing(count, bits, error):
    # a run whose count is below 1 or whose bits do not fit in count bits
    # raises before any of its decisions, after the decisions before it
    enc, ref = RangeEncoder(), RangeEncoder()
    ref.encode_interval([0, 3, 8], 1)
    with pytest.raises(error):
        enc.encode_intervals([([0, 3, 8], 1), (([0, 1, 2], count), bits), ([0, 3, 8], 0)])
    assert (enc.low, enc.range, enc.symbols_coded) == (ref.low, ref.range, ref.symbols_coded)
    assert enc.finish() == ref.finish()


def _run_walk(cum, count):
    return (yield cum, count)


def _bit_walk(cum, count):
    k = 0
    for _ in range(count):
        k = k << 1 | (yield cum)
    return k


def _decoded(data: bytes, lead: list, walk) -> tuple:
    """(outcome, value, range) of decoding lead's tables, then walk."""
    dec = RangeDecoder.from_bytes(data)
    for cum, _ in lead:
        dec.decode_target(cum)
    return dec.decode_walk(walk), dec.value, dec.range


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    cum=st.sampled_from(RUN_TABLES),
    count=st.integers(1, 400),
    data=st.binary(max_size=80),
)
def test_decoded_run_matches_its_decisions(seed, cum, count, data):
    # on arbitrary bytes, most of them no encoder's output
    lead = _lead(seed)
    want = _decoded(data, lead, _bit_walk(cum, count))
    assert _decoded(data, lead, _run_walk(cum, count)) == want


def test_equiprobable_runs_code_as_their_decisions_one_by_one(monkeypatch):
    # [0, 1, 2] takes the shift path in both run loops; the references are
    # encode_interval and decode_target, one generic decision per call
    carries = []
    carry = RangeEncoder._carry
    monkeypatch.setattr(RangeEncoder, "_carry", lambda self: carries.append(1) or carry(self))
    half = [0, 1, 2]
    for seed in range(16):
        lead = _lead(seed)
        for bits in ("1" * 700, "01" * 350, "10" * 350 + "1" * 50):
            enc, ref = RangeEncoder(), RangeEncoder()
            enc.encode_intervals(lead + [_run(half, bits)])
            for cum, k in lead + _decisions_of(half, bits):
                ref.encode_interval(cum, k)
            state = enc.low, enc.range, enc.symbols_coded
            assert state == (ref.low, ref.range, ref.symbols_coded)
            payload = enc.finish()
            assert payload == ref.finish()
            dec, one = RangeDecoder.from_bytes(payload.data), RangeDecoder.from_bytes(payload.data)
            for cum, _ in lead:
                dec.decode_target(cum)
                one.decode_target(cum)
            got = dec.decode_walk(_run_walk(half, len(bits)))
            assert format(got, f"0{len(bits)}b") == bits
            assert "".join(str(one.decode_target(half)) for _ in bits) == bits
            assert (dec.value, dec.range) == (one.value, one.range)
    assert carries  # some leads leave the interval across a byte boundary


# --- equiprobable runs from edge states, against one decision per call --------

HALF = [0, 1, 2]
# the renormalisation threshold, and every range that halves nine times
# before its first renormalisation
EDGE_RANGES = [TOP, TOP + 1, *range(2**64 - 256, 2**64)]
EDGE_COUNTS = [*range(1, 41), 63, 64, 65, 200]
# (low, output so far): the bottom of the window, and the top of it after
# output that ends in 0xFF bytes, where a carry ripples back
EDGE_LOWS = [(0, b""), (MASK - 5, b"\x5a\xff\xff\xff")]


def _bit_patterns(count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [0, (1 << count) - 1, rng.getrandbits(count), int("10" * count, 2) >> count]


def _encoder_at(low: int, rng: int, out: bytes) -> RangeEncoder:
    enc = RangeEncoder()
    enc.low, enc.range, enc._out = low, rng, bytearray(out)
    return enc


def _check_encoded_run(low: int, rng: int, out: bytes, count: int, bits: int) -> None:
    enc, one = _encoder_at(low, rng, out), _encoder_at(low, rng, out)
    enc.encode_intervals([((HALF, count), bits)])
    for bit in format(bits, f"0{count}b"):
        one.encode_interval(HALF, int(bit))
    assert (enc.low, enc.range, enc.symbols_coded) == (one.low, one.range, one.symbols_coded)
    assert enc.finish() == one.finish()


def _check_decoded_run(data: bytes, state, count: int) -> None:
    """The run decodes as count decode_target calls, from the registers
    (value, range), or from the state data leaves when state is None; and
    the decoders read on alike after it."""
    dec, one = RangeDecoder.from_bytes(data), RangeDecoder.from_bytes(data)
    if state is not None:
        dec.value, dec.range = one.value, one.range = state
    got = dec.decode_walk(_run_walk(HALF, count))
    want = 0
    for _ in range(count):
        want = want << 1 | one.decode_target(HALF)
    assert (got, dec.value, dec.range) == (want, one.value, one.range)
    after = [dec.decode_target([0, 3, 8]) for _ in range(24)], dec.value, dec.range
    assert after == ([one.decode_target([0, 3, 8]) for _ in range(24)], one.value, one.range)


@pytest.mark.parametrize("count", EDGE_COUNTS)
def test_equiprobable_run_from_edge_states(count):
    data = bytes(random.Random(count).getrandbits(8) for _ in range(40))
    for rng in (TOP, TOP + 1, 2**64 - 256, MASK):
        for bits in _bit_patterns(count, rng):
            for low, out in EDGE_LOWS:
                _check_encoded_run(low, rng, out, count, bits)
        for value in (0, rng // 3, rng - 1):
            _check_decoded_run(data, (value, rng), count)


def test_equiprobable_run_from_every_range_with_a_nine_bit_head():
    data = bytes(random.Random(9).getrandbits(8) for _ in range(40))
    for rng in EDGE_RANGES:
        for count in (8, 9, 10, 17, 200):
            for bits in _bit_patterns(count, rng):
                _check_encoded_run(MASK - 5, rng, b"\x5a\xff\xff", count, bits)
            for value in (0, rng - 1):
                _check_decoded_run(data, (value, rng), count)


@pytest.mark.parametrize("ffs", [8, 9, 12, 20])
def test_equiprobable_run_on_a_payload_that_opens_with_ff_bytes(ffs):
    # the decoder starts with value == range, an interval no encoder
    # leaves, and must still decode what the per-decision decoder does
    for tail in (b"", b"\x12" * 70, bytes(range(256))):
        data = b"\xff" * ffs + tail
        for count in (*EDGE_COUNTS, 30, 100):
            _check_decoded_run(data, None, count)
        dec = RangeDecoder.from_bytes(data)
        assert dec.value == dec.range == MASK


@pytest.mark.parametrize("count", [29, 30, 31, 59, 60, 61, 89, 90, 91, 1000])
@pytest.mark.parametrize("cum", RUN_TABLES[1:5])
def test_long_runs_code_as_their_decisions_one_by_one(cum, count):
    # both kernels take a run's bits 30 at a time under tables other than
    # [0, 1, 2]; across those boundaries they must still match
    # encode_interval and decode_target one decision per call
    for bits in _bit_patterns(count, count):
        enc, one = RangeEncoder(), RangeEncoder()
        enc.encode_intervals([((cum, count), bits)])
        for bit in format(bits, f"0{count}b"):
            one.encode_interval(cum, int(bit))
        assert (enc.low, enc.range, enc.symbols_coded) == (one.low, one.range, one.symbols_coded)
        payload = enc.finish()
        assert payload == one.finish()
        dec, one = RangeDecoder.from_bytes(payload.data), RangeDecoder.from_bytes(payload.data)
        assert dec.decode_walk(_run_walk(cum, count)) == bits
        assert [one.decode_target(cum) for _ in range(count)] == [
            int(bit) for bit in format(bits, f"0{count}b")
        ]
        assert (dec.value, dec.range) == (one.value, one.range)


@pytest.mark.parametrize("cum", RUN_TABLES)
def test_run_round_trips(cum):
    rng = random.Random(5)
    live = ("0" if cum[1] else "") + ("1" if cum[1] != cum[2] else "")
    bits = "".join(rng.choice(live) for _ in range(300))
    enc = RangeEncoder()
    enc.encode_intervals([_run(cum, bits)])
    got = RangeDecoder.from_bytes(enc.finish().data).decode_walk(_run_walk(cum, len(bits)))
    assert format(got, f"0{len(bits)}b") == bits


def test_decoded_run_validates_its_table():
    dec = RangeDecoder.from_bytes(b"\x12\x34")
    with pytest.raises(ValueError):
        dec.decode_walk(_run_walk([0, 1, TOTAL_MAX + 1], 3))
    with pytest.raises(ValueError):
        dec.decode_walk(_run_walk([0, 1, 2, 3], 3))


@pytest.mark.parametrize(
    "cum,count", [(cum, 3) for cum in NOT_RUN_TABLES] + [([0, 1, 2], 0), ([0, 1, 2], -1)]
)
def test_both_kernels_refuse_a_malformed_run(cum, count):
    # before any of its decisions: the encoder keeps its registers, output
    # and symbols_coded, and the decoder its value and range
    enc, ref = RangeEncoder(), RangeEncoder()
    ref.encode_interval([0, 3, 8], 1)
    with pytest.raises(ValueError):
        enc.encode_intervals([([0, 3, 8], 1), ((cum, count), 0), ([0, 3, 8], 0)])
    assert (enc.low, enc.range, enc.symbols_coded) == (ref.low, ref.range, ref.symbols_coded)
    assert enc.finish() == ref.finish()
    dec = RangeDecoder.from_bytes(bytes(range(7, 250, 13)))
    dec.decode_target([0, 3, 8])
    state = dec.value, dec.range
    with pytest.raises(ValueError):
        dec.decode_walk(_run_walk(cum, count))
    assert (dec.value, dec.range) == state


@pytest.mark.parametrize("offset", [1, 3, 8, 13])
def test_decoder_from_unaligned_reader_reads_zeros_past_the_end(offset):
    rng = random.Random(offset)
    stream = [([0, 1, 2, 3], rng.randrange(3)) for _ in range(40)]
    enc = RangeEncoder()
    enc.encode_intervals(stream)
    payload = enc.finish()
    w = BitWriter()
    for _ in range(offset):
        w.write_bit(1)
    w.write_bitstring(payload)
    framed = RangeDecoder.from_reader(BitReader(w.getvalue(), start_bit=offset))
    plain = RangeDecoder.from_bytes(payload.data)
    for cum, k in stream + [([0, 1, 2, 3], 0)] * 40:  # then 40 decisions past the end
        assert framed.decode_target(cum) == plain.decode_target(cum)
        assert (framed.value, framed.range) == (plain.value, plain.range)
