"""Range coder: round-trip correctness and tightness of the output length."""

import copy
import math
import random
import signal
from contextlib import contextmanager
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


# --- runs: many decisions under one two-outcome table in one stream item -----
#
# A run is the chain of one copy, n = 1, whose termination codes nothing: a
# point mass on outcome 0 in one stretch of every depth.

# tables whose two outcomes both have mass, the only ones a run may have
RUN_TABLES = [
    [0, 1, 2],
    [0, 11184811, 16777216],  # Binomial(1, 1/3)
    [0, 5991863, 8388608],  # BetaBin(1, 2, 5)
    [0, 1, TOTAL_MAX],  # slivers at either end; runs of outcome 1 carry through 0xFF bytes
    [0, TOTAL_MAX - 1, TOTAL_MAX],
]

# tables with a dead outcome, which both kernels refuse for a run before
# any of its decisions: such decisions go one at a time
DEAD_RUN_TABLES = [
    [0, 0, 1],  # point masses
    [0, 1, 1],
    [0, 0, TOTAL_MAX],  # dead outcome 0
    [0, 7, 7],  # dead outcome 1
    [0, TOTAL_MAX, TOTAL_MAX],
]

# tables with other than two outcomes, which no chain at n = 1 may have
NOT_RUN_TABLES = [
    [0, 3, 5, 11, 20],  # n = 3
    list(quantize([math.log2(p) for p in (0.2, 0.3, 0.1, 0.15, 0.25)])),
    [0, 1],  # a point mass with one outcome
    [0, 0, 1, 1],  # a point mass on a middle outcome
]


HALF = [0, 1, 2]
POINT_MASS = [0, 1]


def _point_mass(d: int, n: int) -> tuple:
    """The termination of a run: a point mass on outcome 0, one stretch."""
    return POINT_MASS, None


def _run_chain(cum, count: int) -> tuple:
    """The run of count decisions under cum: a chain at n = 1 from depth 0."""
    return cum, 1, _point_mass, 0, count


def _run_item(cum, count: int, bits) -> tuple:
    """The run's stream item, its outcomes the bits of one int, first
    decision on top."""
    return _run_chain(cum, count), bits


def _run(cum, bits: str) -> tuple:
    """The run item of bits, written as '0'/'1' text."""
    return _run_item(cum, len(bits), int(bits, 2))


def _decisions_of(cum, bits: str) -> list:
    """A run's decisions one by one: outcome 0 per '0', the top per '1'."""
    return [(cum, len(cum) - 2 if bit == "1" else 0) for bit in bits]


def _coded(stream, enc=None) -> tuple:
    """(error type, low, range, symbols_coded, payload) of coding stream,
    with enc or a fresh encoder."""
    enc = RangeEncoder() if enc is None else enc
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
    # a run under a table with a dead outcome raises ValueError before any
    # of its decisions, whichever bits it holds and wherever the dead
    # outcome's first bit sits: what came before stays coded, nothing after
    for cum, bits in (
        ([0, 0, 8], "11101"),  # outcome 0 is dead
        ([0, 8, 8], "00010"),  # outcome 1 is dead
        ([0, 0, 8], "1" * 40),  # no bit takes the dead outcome
        *(([0, 0, 8], "1" * n + "0" + "10" * 20) for n in (29, 30, 31, 60, 99)),
        *(([0, 8, 8], "0" * n + "1" + "01" * 20) for n in (29, 30, 31, 60, 99)),
    ):
        enc, ref = RangeEncoder(), RangeEncoder()
        ref.encode_interval([0, 3, 8], 1)
        with pytest.raises(ValueError, match="outcomes 0 and 1 have mass"):
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
        (0, 0, None),  # a chain of no depths: it codes nothing, and the stream goes on
        (-1, 0, ValueError),
        (3, 8, ValueError),
        (3, -1, ValueError),
        (160, 1 << 160, ValueError),
        (2, "01", TypeError),  # the bits are an int, never text
    ],
)
def test_malformed_run_codes_nothing(count, bits, error):
    # a run whose count is below 0 or whose bits do not fit in count bits
    # raises before any of its decisions, after the decisions before it
    enc, ref = RangeEncoder(), RangeEncoder()
    ref.encode_interval([0, 3, 8], 1)
    stream = [([0, 3, 8], 1), _run_item(HALF, count, bits), ([0, 3, 8], 0)]
    if error is None:
        ref.encode_interval([0, 3, 8], 0)
        enc.encode_intervals(stream)
    else:
        with pytest.raises(error):
            enc.encode_intervals(stream)
    assert (enc.low, enc.range, enc.symbols_coded) == (ref.low, ref.range, ref.symbols_coded)
    assert enc.finish() == ref.finish()


def _marked(item):
    """The walk of one decoder chain (split, n, termination, d, count): it
    hands the kernel a prefix that already holds a sentinel byte, checks
    that the kernel left that byte alone and appended one 0/1 value for
    each of the c depths it sent back, and returns 1 << c | bits."""
    prefix = bytearray(b"\x07")
    c = yield (*item, prefix)
    assert prefix[0] == 7 and len(prefix) == 1 + c and set(prefix[1:]) <= {0, 1}
    return int("1" + "".join(map(str, prefix[1:])), 2)


def _run_walk(cum, count):
    """The walk of one run: it returns the run's outcomes as one int."""
    got = yield from _marked(_run_chain(cum, count))
    assert got >> count == 1  # a point mass never stops a chain at n = 1
    return got ^ 1 << count


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
    enc.encode_intervals([_run_item(HALF, count, bits)])
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
    for _ in range(24):
        assert dec.decode_target([0, 3, 8]) == one.decode_target([0, 3, 8])
        assert (dec.value, dec.range) == (one.value, one.range)


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
    # under tables other than [0, 1, 2] both kernels take a run a depth at
    # a time, the encoder reading each bit from a 0/1 byte and the decoder
    # appending it to the prefix; at every length they must still match
    # encode_interval and decode_target one decision per call
    for bits in _bit_patterns(count, count):
        enc, one = RangeEncoder(), RangeEncoder()
        enc.encode_intervals([_run_item(cum, count, bits)])
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
    bits = "".join(rng.choice("01") for _ in range(300))
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
    "cum,count",
    [(cum, 3) for cum in NOT_RUN_TABLES + DEAD_RUN_TABLES]
    + [(cum, 0) for cum in DEAD_RUN_TABLES]
    + [([0, 1, 2], 0), ([0, 1, 2], -1)],
)
def test_both_kernels_refuse_a_malformed_run(cum, count):
    # before any of its decisions: the encoder keeps its registers, output
    # and symbols_coded, and the decoder its value and range; a run of no
    # decisions under a live table is a chain of no depths, which both
    # kernels take as nothing, while a dead outcome is refused at any count
    enc, ref = RangeEncoder(), RangeEncoder()
    ref.encode_interval([0, 3, 8], 1)
    stream = [([0, 3, 8], 1), _run_item(cum, count, 0), ([0, 3, 8], 0)]
    dec = RangeDecoder.from_bytes(bytes(range(7, 250, 13)))
    dec.decode_target([0, 3, 8])
    state = dec.value, dec.range
    if count == 0 and cum not in DEAD_RUN_TABLES:
        ref.encode_interval([0, 3, 8], 0)
        enc.encode_intervals(stream)
        assert dec.decode_walk(_run_walk(cum, count)) == 0
    else:
        with pytest.raises(ValueError):
            enc.encode_intervals(stream)
        with pytest.raises(ValueError):
            dec.decode_walk(_run_walk(cum, count))
    assert (enc.low, enc.range, enc.symbols_coded) == (ref.low, ref.range, ref.symbols_coded)
    assert enc.finish() == ref.finish()
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


@pytest.mark.parametrize("size", range(13))
def test_decoder_reads_zeros_past_the_end_of_its_buffer(size):
    # runs long enough to take byte steps past the last byte of a short
    # payload, then single decisions
    data = random.Random(size).randbytes(size)
    for count in range(1, 201):
        _check_decoded_run(data, None, count)


def test_empty_payload_decodes_as_zeros():
    dec = RangeDecoder.from_bytes(b"")
    assert dec.value == 0
    assert [dec.decode_target(HALF) for _ in range(100)] == [0] * 100
    assert dec.decode_walk(_run_walk(HALF, 200)) == 0
    assert dec.decode_walk(_run_walk([0, 3, 8], 70)) == 0
    assert dec.value == 0


@contextmanager
def _deadline(seconds: float):
    """Fail, instead of hanging, if the body runs past seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "item",
    [
        ([0, 1, 2], 0),
        ([0, 3, 8], 1),
        _run_item(HALF, 20, 5),
        _run_item([0, 3, 8], 20, 5),
        (([0, 3, 8], 1, lambda d, n: ([0, 1, 1], d + 1), 0, 20), 5),  # a chain
    ],
)
def test_encoder_refuses_to_renormalise_a_zero_range(item):
    # no input empties the interval, so this is an internal error, not a
    # malformed-input one; without the guard the output grows forever
    enc = RangeEncoder()
    enc.range = 0
    with _deadline(2.0), pytest.raises(RuntimeError, match="empty"):
        enc.encode_intervals([item])


@pytest.mark.parametrize("rng", [0, 1, TOP - 1, MASK + 1])
def test_decoder_refuses_a_range_no_renormalisation_leaves(rng):
    # a decision divides by range // total before any renormalisation, so
    # a zero range would raise ZeroDivisionError there, not the coder's error
    dec = RangeDecoder.from_bytes(b"\x12\x34")
    dec.range = rng
    with pytest.raises(RuntimeError, match="empty" if rng == 0 else "outside"):
        dec.decode_target([0, 1, 2])
    assert dec.range == rng


@pytest.mark.parametrize("cum", [HALF, [0, 3, 8]])
def test_decoder_refuses_to_renormalise_a_zero_range(cum):
    # without the guard the run spins on zero bytes
    dec = RangeDecoder.from_bytes(b"\x12\x34")
    dec.range = 0
    with _deadline(2.0), pytest.raises(RuntimeError, match="empty"):
        dec.decode_walk(_run_walk(cum, 20))


# --- chains: per depth a termination count of 0, then a split of 0 or n -----

# (split table, n, termination tables cycled by depth); the kernels read a
# termination table's first bound and total, and the split table's bounds
# of outcomes 0 and n, both of which have mass.  A chain's termination(d,
# n) gives the table of depth d and the end of its stretch, the depths that
# share that table.
CHAIN_CASES = [
    ([0, 1, 2], 1, [[0, 2, 3], [0, 11184811, 16777216]]),
    ([0, 11184811, 16777216], 1, [[0, 1, 1]]),  # termination total 1: a point mass on 0
    ([0, 3, 5, 11, 20], 3, [[0, 9, 12, 14, 15], [0, 15, 15, 15, 15]]),  # t1 == total
    ([0, 4, 9, 19, 20], 3, [[0, 1, 1, 1, 1]]),  # the remainder zone, outcome n's
    ([0, 1, 2, TOTAL_MAX - 1, TOTAL_MAX], 3, [[0, TOTAL_MAX - 1, TOTAL_MAX, TOTAL_MAX, TOTAL_MAX]]),
    ([0, TOTAL_MAX - 1, TOTAL_MAX], 1, [[0, 1, TOTAL_MAX]]),  # slivers: carries and long shifts
    ([0, 5, 6, 9], 2, [[0, 0, 3, 8], [0, 4, 4, 4]]),  # a dead termination outcome 0
    ([0, 5, 6, 9], 2, [[0, 0, 1, 1], [0, 4, 4, 4]]),  # a termination point mass past 0
    ([0, 1, 2], 1, [[0, 1]]),  # equiprobable under a point mass: the byte steps
    ([0, 1, 2], 1, [[0, 1], [0, 2, 3]]),  # byte steps in every other stretch
]

# splits whose outcome 0 or n has no mass, which both kernels refuse for a
# chain before any of its depths: such depths go one decision at a time
DEAD_CHAIN_CASES = [
    ([0, 0, 5, 9, 20], 3, [[0, 9, 12, 14, 15]]),  # dead outcome 0
    ([0, 4, 9, 20, 20], 3, [[0, 9, 12, 14, 15]]),  # dead top outcome
    ([0, 4, 9, 20, 20], 3, [[0, 1, 1, 1, 1]]),  # the remainder zone, a dead outcome's
    ([0, 1, 1], 1, [[0, 5, 8], [0, 1, 1]]),  # point masses on either split outcome
    ([0, 0, 1], 1, [[0, 5, 8]]),
    ([0, 0, 1, 1], 2, [[0, 5, 8, 9]]),  # a point mass on a middle outcome
]


# stretch widths: each stretch of that many depths, from depth 0, takes
# the next of a case's tables; None is one stretch of the first table
WIDTHS = [2, 3, 8, 20, None]


def _table_at(tables, width, e: int):
    """The termination table of depth e under stretches of width depths."""
    return tables[0] if width is None else tables[e // width % len(tables)]


def _termination(tables, width=1):
    """termination(d, n) -> (table, end): the table of d's stretch and
    where that stretch ends; width 1 gives each depth its own."""
    return lambda d, n: (
        _table_at(tables, width, d),
        None if width is None else (d // width + 1) * width,
    )


def _chain(case, d: int, bits: str, width=1) -> tuple:
    """The chain item of bits, written as '0'/'1' text, from depth d."""
    split, n, tables = case
    return (split, n, _termination(tables, width), d, len(bits)), int(bits or "0", 2)


def _chain_decisions(case, d: int, bits: str, width=1) -> list:
    """A chain's decisions one by one: per depth, termination outcome 0,
    then split outcome 0 per '0' and n per '1'."""
    split, n, tables = case
    out = []
    for e, bit in enumerate(bits, d):
        out += [(_table_at(tables, width, e), 0), (split, n if bit == "1" else 0)]
    return out


def _one_by_one(enc: RangeEncoder, stream) -> tuple:
    """(error type, low, range, symbols_coded, payload) of coding stream one
    encode_interval call per decision."""
    error = None
    try:
        for cum, k in stream:
            enc.encode_interval(cum, k)
    except ModelMismatchError as e:
        error = type(e)
    return error, enc.low, enc.range, enc.symbols_coded, enc.finish()


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    case=st.sampled_from(CHAIN_CASES),
    width=st.sampled_from([1, *WIDTHS]),
    d=st.integers(0, 3),
    bits=st.text("01", max_size=300),
)
def test_chain_codes_as_its_decisions(seed, case, width, d, bits):
    # a table per depth, or one for several, the chain starting anywhere
    # in a stretch
    lead = _lead(seed)
    tail = [([0, 2, 5], 1)]  # coded only if the chain raised nothing
    got = _coded(lead + [_chain(case, d, bits, width)] + tail)
    assert got == _one_by_one(RangeEncoder(), lead + _chain_decisions(case, d, bits, width) + tail)


def _chain_walk(case, d: int, count: int, width=1):
    split, n, tables = case
    return (yield from _marked((split, n, _termination(tables, width), d, count)))


def _chain_by_targets(dec: RangeDecoder, case, d: int, count: int, width=1) -> int:
    """What a chain decodes, one decode_target call per decision: each depth
    is tried on a copy of dec and kept only if its termination count is 0
    and its split 0 or n.  Returns 1 << depths | bits."""
    split, n, tables = case
    got = 1
    for e in range(d, d + count):
        trial = copy.copy(dec)
        if trial.decode_target(_table_at(tables, width, e)):
            break
        k = trial.decode_target(split)
        if k not in (0, n):
            break
        dec.value, dec.range, dec._pos = trial.value, trial.range, trial._pos
        got = got << 1 | (k == n)
    return got


def _check_decoded_chain(
    data: bytes, state, lead: list, case, d: int, count: int, width=1
) -> None:
    """The chain decodes as _chain_by_targets, from the registers (value,
    range) or, where state is None, from where lead's tables leave data;
    and the decoders read on alike after it."""
    dec, one = RangeDecoder.from_bytes(data), RangeDecoder.from_bytes(data)
    if state is not None:
        dec.value, dec.range = one.value, one.range = state
    for cum, _ in lead:
        dec.decode_target(cum)
        one.decode_target(cum)
    got = dec.decode_walk(_chain_walk(case, d, count, width))
    assert got == _chain_by_targets(one, case, d, count, width)
    assert (dec.value, dec.range, dec._pos) == (one.value, one.range, one._pos)
    for cum in (*case[2], case[0], [0, 3, 8]):
        assert dec.decode_target(cum) == one.decode_target(cum)
        assert (dec.value, dec.range, dec._pos) == (one.value, one.range, one._pos)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    case=st.sampled_from(CHAIN_CASES),
    width=st.sampled_from([1, *WIDTHS]),
    d=st.integers(0, 3),
    count=st.integers(0, 300),
    data=st.binary(max_size=80),
)
def test_decoded_chain_matches_its_decisions(seed, case, width, d, count, data):
    # on arbitrary bytes, most of them no encoder's output
    _check_decoded_chain(data, None, _lead(seed), case, d, count, width)


@pytest.mark.parametrize("width", [1, *WIDTHS])
def test_chain_looks_up_one_table_per_stretch(width):
    # from depth 3 over 40 depths, a lookup where the chain starts and at
    # each later depth where a stretch starts, in both kernels
    case = CHAIN_CASES[0]
    split, n, tables = case
    termination, asked = _termination(tables, width), []
    item = (split, n, lambda d, n: asked.append(d) or termination(d, n), 3, 40)
    starts = [3] if width is None else [3, *range(width * (3 // width + 1), 43, width)]
    bits = int("0110" * 10, 2)
    enc = RangeEncoder()
    enc.encode_intervals([(item, bits)])
    assert asked == starts
    asked.clear()

    dec = RangeDecoder.from_bytes(enc.finish().data)
    assert dec.decode_walk(_marked(item)) == 1 << 40 | bits
    assert asked == starts


@pytest.mark.parametrize("case", [case for case in CHAIN_CASES if all(t[1] for t in case[2])])
def test_chain_round_trips(case):
    # a chain, then the termination outcome that ends it, where no
    # termination table gives outcome 0 no mass
    split, n, tables = case
    bits = "".join(random.Random(7).choice("01") for _ in range(300))
    end = [0, 1, 3, 6, 10][: n + 2]
    enc = RangeEncoder()
    enc.encode_intervals([_chain(case, 0, bits), (end, 1)])
    dec = RangeDecoder.from_bytes(enc.finish().data)
    got = dec.decode_walk(_chain_walk(case, 0, len(bits)))
    assert format(got, "b")[1:] == bits
    assert dec.decode_target(end) == 1


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_chain_from_edge_states(case):
    # the renormalisation threshold, ranges just below 2**64, and (for the
    # encoder) a low at the top of the window after output that ends in
    # 0xFF bytes, where a carry ripples back
    data = bytes(random.Random(11).getrandbits(8) for _ in range(40))
    for rng in (TOP, TOP + 1, 2**64 - 257, MASK):
        for bits in ("1" * 40, "0" * 40, "10" * 20, "0110" * 10 + "1"):
            for low, out in EDGE_LOWS:
                got = _coded([_chain(case, 1, bits)], _encoder_at(low, rng, out))
                want = _one_by_one(_encoder_at(low, rng, out), _chain_decisions(case, 1, bits))
                assert got == want
        for value in (0, rng // 3, rng - 1):
            for count in (0, 1, 9, 40):
                _check_decoded_chain(data, (value, rng), [], case, 1, count)


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_decoded_chain_at_the_bounds_of_its_outcomes(case):
    # a value on either side of each bound the chain compares it with: the
    # termination's outcome 0, and (where the termination leaves the
    # registers as they are) the split's outcomes 0 and n and its remainder
    split, n, tables = case
    data = bytes(range(40))
    for rng in (TOP, TOP + 1, 2**64 - 257, MASK):
        term = tables[1 % len(tables)]
        bounds = {rng // term[-1] * term[1]}
        bounds.update(rng // split[-1] * b for b in (split[1], split[n], split[-1]))
        for value in sorted({b + e for b in bounds for e in (-1, 0)}):
            if 0 <= value < rng:
                _check_decoded_chain(data, (value, rng), [], case, 1, 3)


def test_chain_carries_through_ff_bytes(monkeypatch):
    carries = []
    carry = RangeEncoder._carry
    monkeypatch.setattr(RangeEncoder, "_carry", lambda self: carries.append(1) or carry(self))
    case = CHAIN_CASES[4]  # outcome n a sliver at the top of the split table
    bits = "1" * 200 + "0" + "1" * 200
    got = _coded([_chain(case, 0, bits)])
    assert carries  # a carry rippled back inside the chain
    assert got == _one_by_one(RangeEncoder(), _chain_decisions(case, 0, bits))


def test_chain_of_no_depths_codes_nothing():
    for case in CHAIN_CASES:
        enc, ref = RangeEncoder(), RangeEncoder()
        enc.encode_intervals([([0, 3, 8], 1), _chain(case, 5, ""), ([0, 3, 8], 0)])
        ref.encode_intervals([([0, 3, 8], 1), ([0, 3, 8], 0)])
        assert (enc.low, enc.range, enc.symbols_coded) == (ref.low, ref.range, ref.symbols_coded)
        assert enc.finish() == ref.finish()
        dec = RangeDecoder.from_bytes(bytes(range(7, 250, 13)))
        state = dec.value, dec.range
        assert dec.decode_walk(_chain_walk(case, 5, 0)) == 1
        assert (dec.value, dec.range) == state


@pytest.mark.parametrize(
    "split,n,count,bits",
    [
        ([0, 3, 8], 2, 3, 0),  # n is not the table's top outcome
        ([0, 3, 5, 8], 1, 3, 0),
        ([0, 8], 0, 3, 0),
        ([0, 1, TOTAL_MAX + 1], 1, 3, 0),
        ([0, 0, 0], 1, 3, 0),
        ([0, 3, 8], 1, -1, 0),
        ([0, 3, 8], 1, 3, 8),  # bits that do not fit the count (encoder only)
        ([0, 3, 8], 1, 3, -1),
        # a dead outcome 0 or n, whether or not a bit takes it
        *((split, n, count, 0) for split, n, _ in DEAD_CHAIN_CASES for count in (0, 3)),
        *((split, n, 3, 0b101) for split, n, _ in DEAD_CHAIN_CASES),
    ],
)
def test_both_kernels_refuse_a_malformed_chain(split, n, count, bits):
    # before any of its decisions: the encoder keeps its registers, output
    # and symbols_coded, and the decoder its value and range
    item = (split, n, lambda d, n: ([0, 5, 8], d + 1), 0, count)
    enc, ref = RangeEncoder(), RangeEncoder()
    ref.encode_interval([0, 3, 8], 1)
    with pytest.raises(ValueError):
        enc.encode_intervals([([0, 3, 8], 1), (item, bits), ([0, 3, 8], 0)])
    assert (enc.low, enc.range, enc.symbols_coded) == (ref.low, ref.range, ref.symbols_coded)
    assert enc.finish() == ref.finish()
    if bits:
        return
    dec = RangeDecoder.from_bytes(bytes(range(7, 250, 13)))
    state = dec.value, dec.range
    with pytest.raises(ValueError):
        dec.decode_walk(_marked(item))
    assert (dec.value, dec.range) == state


def test_chain_refuses_a_termination_table_at_its_depth():
    # a termination total out of range raises ValueError at its depth, with
    # the depths before it coded, as one decision at a time would
    tables = {0: [0, 5, 8], 1: [0, 6, 9], 2: [0, 1, TOTAL_MAX + 1]}
    item = ([0, 3, 8], 1, lambda d, n: (tables[d], d + 1), 0, 3)
    enc, ref = RangeEncoder(), RangeEncoder()
    ref.encode_intervals([([0, 5, 8], 0), ([0, 3, 8], 1), ([0, 6, 9], 0), ([0, 3, 8], 0)])
    with pytest.raises(ValueError):
        enc.encode_intervals([(item, 0b101)])
    assert (enc.low, enc.range, enc.symbols_coded) == (ref.low, ref.range, ref.symbols_coded)
    data = ref.finish().data
    dec, one = RangeDecoder.from_bytes(data), RangeDecoder.from_bytes(data)
    for cum in ([0, 5, 8], [0, 3, 8], [0, 6, 9], [0, 3, 8]):
        one.decode_target(cum)
    with pytest.raises(ValueError):
        dec.decode_walk(_marked(item))
    assert (dec.value, dec.range, dec._pos) == (one.value, one.range, one._pos)


@pytest.mark.parametrize(
    "bad,error", [([0, 1, TOTAL_MAX + 1], ValueError), ([0, 0, 8], ModelMismatchError)]
)
def test_chain_checks_a_stretch_table_at_the_stretch_start(bad, error):
    # a stretch's table is checked once, at the first depth that takes it:
    # the depths before that are coded, and the encoder raises there, as
    # one decision at a time would; the decoder raises there too, or, on a
    # dead outcome 0, stops there and leaves that depth undecoded
    asked = []
    stretches = {0: ([0, 5, 8], 2), 2: (bad, None)}
    item = ([0, 3, 8], 1, lambda d, n: asked.append(d) or stretches[d], 0, 4)
    enc, ref = RangeEncoder(), RangeEncoder()
    ref.encode_intervals([([0, 5, 8], 0), ([0, 3, 8], 1), ([0, 5, 8], 0), ([0, 3, 8], 0)])
    with pytest.raises(error):
        enc.encode_intervals([(item, 0b1011)])
    assert asked == [0, 2]
    assert (enc.low, enc.range, enc.symbols_coded) == (ref.low, ref.range, ref.symbols_coded)
    data = ref.finish().data
    dec, one = RangeDecoder.from_bytes(data), RangeDecoder.from_bytes(data)
    for cum in ([0, 5, 8], [0, 3, 8], [0, 5, 8], [0, 3, 8]):
        one.decode_target(cum)

    asked.clear()
    if error is ValueError:
        with pytest.raises(ValueError):
            dec.decode_walk(_marked(item))
    else:
        assert dec.decode_walk(_marked(item)) == 0b110
    assert asked == [0, 2]
    assert (dec.value, dec.range, dec._pos) == (one.value, one.range, one._pos)


# --- tails: a member's depths under a two-outcome split, to its end -------

# two-outcome split tables whose outcomes both have mass: the equiprobable
# one the decoder shifts for, lopsided ones and slivers
TAIL_TABLES = [
    [0, 1, 2],
    [0, 11184811, 16777216],
    [0, 2, 5],
    [0, 1, TOTAL_MAX],
    [0, TOTAL_MAX - 1, TOTAL_MAX],
]
# where a tail ends: at a Fibonacci terminator 11, at 9 bits, or never
TAIL_ENDS = [
    lambda p: len(p) >= 2 and p[-1] == p[-2] == 1,
    lambda p: len(p) == 9,
    lambda p: False,
]


def _tail_walk(split, complete, count, prefix):
    return (yield split, prefix, complete, count)


def _tail_by_targets(dec: RangeDecoder, split, complete, count, prefix) -> int:
    """What a tail decodes, one decode_target call per depth: each bit is
    appended to prefix, up to the first prefix complete holds for."""
    for c in range(1, count + 1):
        prefix.append(dec.decode_target(split))
        if complete(prefix):
            return c
    return count


def _check_decoded_tail(data: bytes, state, lead: list, split, complete, count: int) -> None:
    """The tail decodes as _tail_by_targets, with the same prefix and the
    same complete calls, from the registers (value, range) or, where state
    is None, from where lead's tables leave data; and the decoders read on
    alike after it."""
    dec, one = RangeDecoder.from_bytes(data), RangeDecoder.from_bytes(data)
    if state is not None:
        dec.value, dec.range = one.value, one.range = state
    for cum, _ in lead:
        dec.decode_target(cum)
        one.decode_target(cum)
    asked, want_asked = [], []
    prefix, want_prefix = bytearray(b"\x01"), bytearray(b"\x01")
    got = dec.decode_walk(
        _tail_walk(split, lambda p: asked.append(bytes(p)) or complete(p), count, prefix)
    )
    want = _tail_by_targets(
        one, split, lambda p: want_asked.append(bytes(p)) or complete(p), count, want_prefix
    )
    assert (got, prefix, asked) == (want, want_prefix, want_asked)
    assert (dec.value, dec.range, dec._pos) == (one.value, one.range, one._pos)
    for cum in (split, [0, 3, 8]):
        assert dec.decode_target(cum) == one.decode_target(cum)
        assert (dec.value, dec.range, dec._pos) == (one.value, one.range, one._pos)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    split=st.sampled_from(TAIL_TABLES),
    end=st.sampled_from(TAIL_ENDS),
    count=st.integers(0, 300),
    data=st.binary(max_size=80),
)
def test_decoded_tail_matches_its_decisions(seed, split, end, count, data):
    # on arbitrary bytes, most of them no encoder's output
    _check_decoded_tail(data, None, _lead(seed), split, end, count)


@pytest.mark.parametrize("split", TAIL_TABLES)
def test_tail_from_edge_states(split):
    # the renormalisation threshold, ranges just below 2**64, a value on
    # either side of the bound between the outcomes, and a value at or
    # past the range, which a payload that opens with 0xFF bytes gives
    data = bytes(random.Random(13).getrandbits(8) for _ in range(40))
    for rng in (TOP, TOP + 1, 2**64 - 257, MASK):
        bound = rng >> 1 if split == [0, 1, 2] else rng // split[2] * split[1]
        for value in {0, rng // 3, max(bound - 1, 0), bound, rng - 1, rng}:
            for end in TAIL_ENDS:
                for count in (0, 1, 9, 40):
                    _check_decoded_tail(data, (value, rng), [], split, end, count)
    _check_decoded_tail(b"\xff" * 12, None, [], split, lambda p: False, 100)


@pytest.mark.parametrize(
    "split,count",
    [
        ([0, 3, 8, 9], 3),  # not two outcomes
        ([0, 8], 3),
        ([0, 3, 3], 3),  # outcome 1 dead
        ([0, 1, 1], 3),
        ([0, 0, 5], 3),  # outcome 0 dead
        ([0, 0, 1], 3),
        ([0, 0, 5], 0),  # refused even where it would decode no depth
        ([0, 1, TOTAL_MAX + 1], 3),
        ([0, 0, 0], 3),
        ([0, 3, 8], -1),
    ],
)
def test_decoder_refuses_a_malformed_tail(split, count):
    # before any of its depths: the decoder keeps its value and range, and
    # neither extends the prefix nor asks whether it is complete
    dec = RangeDecoder.from_bytes(bytes(range(7, 250, 13)))
    state, prefix, asked = (dec.value, dec.range), bytearray(), []
    with pytest.raises(ValueError):
        dec.decode_walk(_tail_walk(split, asked.append, count, prefix))
    assert (dec.value, dec.range) == state
    assert not prefix and not asked


# two-outcome tables for a descent's levels, both outcomes live: even,
# lopsided, slivers
DESCENT_TABLES = [
    [0, 1, 2],
    [0, 3, 8],
    [0, 1, TOTAL_MAX],
    [0, TOTAL_MAX - 1, TOTAL_MAX],
]

# a dead outcome on either side, point masses: both kernels refuse a level
# under one of these, there, with ValueError
DEAD_DESCENT_TABLES = [
    [0, 0, 5],
    [0, 5, 5],
    [0, 0, 1],
    [0, 1, 1],
]


def _descent_table(seed: int, width: int):
    """table(n, width) of a descent over width slots: a seed-chosen table
    per width, as a walk's cache gives one per (1, width)."""
    rng = random.Random(seed)
    tables = {w: rng.choice(DESCENT_TABLES) for w in range(2, width + 1)}
    return lambda n, w: tables[w]


def _descent_decisions(table, lo: int, hi: int, slot: int) -> list:
    """The descent to slot as one (table, outcome) per level: outcome 1
    for the left half."""
    decisions = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        decisions.append((table(1, hi - lo), int(slot < mid)))
        lo, hi = (lo, mid) if slot < mid else (mid, hi)
    return decisions


def _descent_walk(table, lo: int, hi: int):
    return (yield table, lo, hi)


def _descent_by_targets(dec: RangeDecoder, table, lo: int, hi: int) -> int:
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if dec.decode_target(table(1, hi - lo)) else (mid, hi)
    return lo


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    lo=st.integers(0, 3),
    width=st.integers(1, 300),
    pick=st.integers(0, 2**16),
)
def test_descent_codes_as_its_decisions(seed, lo, width, pick):
    table, slot = _descent_table(seed, width), lo + pick % width
    lead = _lead(seed)
    tail = [([0, 2, 5], 1)]  # coded only if the descent raised nothing
    got = _coded(lead + [((table, lo, lo + width), slot)] + tail)
    levels = _descent_decisions(table, lo, lo + width, slot)
    assert got == _one_by_one(RangeEncoder(), lead + levels + tail)


def test_descent_round_trips_and_carries(monkeypatch):
    carries = []
    carry = RangeEncoder._carry
    monkeypatch.setattr(RangeEncoder, "_carry", lambda self: carries.append(1) or carry(self))
    # the left half is almost certain: a run of it carries, the right half
    # narrows the range by 24 bits a level
    sliver = lambda n, w: [0, 1, TOTAL_MAX]  # noqa: E731
    stream = [((sliver, 0, 2**60), 2**60 - 1), ((sliver, 0, 2**60), 0)] * 4
    stream += [((_descent_table(s, 500), 7, 507), 7 + s) for s in range(40)]
    enc = RangeEncoder()
    enc.encode_intervals(stream)
    assert carries  # a carry rippled back inside a descent
    levels = [_descent_decisions(*item, slot) for item, slot in stream]
    assert enc.symbols_coded == sum(map(len, levels))
    dec = RangeDecoder.from_bytes(enc.finish().data)
    assert [dec.decode_walk(_descent_walk(*item)) for item, _ in stream] == [s for _, s in stream]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    lo=st.integers(0, 3),
    width=st.integers(1, 300),
    data=st.binary(max_size=60) | st.binary(max_size=40).map(lambda b: b"\xff" * 8 + b),
)
def test_decoded_descent_matches_its_decisions(seed, lo, width, data):
    # on arbitrary bytes, most of them no encoder's output, and on bytes
    # that open in the remainder zone
    table = _descent_table(seed, width)
    dec, one = RangeDecoder.from_bytes(data), RangeDecoder.from_bytes(data)
    for cum, _ in _lead(seed) if data[:8] != b"\xff" * 8 else ():
        dec.decode_target(cum)
        one.decode_target(cum)
    got = dec.decode_walk(_descent_walk(table, lo, lo + width))
    assert got == _descent_by_targets(one, table, lo, lo + width)
    assert (dec.value, dec.range, dec._pos) == (one.value, one.range, one._pos)


@pytest.mark.parametrize("split", DESCENT_TABLES)
def test_descent_from_edge_states(split):
    # the renormalisation threshold, ranges just below 2**64, a value on
    # either side of the bound between the outcomes, in the remainder zone
    # and at the range, which a payload that opens with 0xFF bytes gives
    data = bytes(random.Random(17).getrandbits(8) for _ in range(40))
    table = lambda n, w: split  # noqa: E731
    for rng in (TOP, TOP + 1, 2**64 - 257, MASK):
        q = rng // split[2]
        for value in {0, q * split[1] - 1, q * split[1], q * split[2], rng - 1, rng} - {-1}:
            for width in (2, 3, 64, 1000):
                dec, one = RangeDecoder.from_bytes(data), RangeDecoder.from_bytes(data)
                dec.value, dec.range = one.value, one.range = value, rng
                got = dec.decode_walk(_descent_walk(table, 5, 5 + width))
                assert got == _descent_by_targets(one, table, 5, 5 + width)
                assert (dec.value, dec.range, dec._pos) == (one.value, one.range, one._pos)


def test_both_kernels_refuse_a_malformed_descent():
    # a slot outside the descent, no slots, or a first level with a dead
    # outcome: refused before any level is coded
    table = lambda n, w: [0, 3, 8]  # noqa: E731
    dead = [lambda n, w, cum=cum: cum for cum in DEAD_DESCENT_TABLES]
    items = [((table, 4, 9), 9), ((table, 4, 9), 3), ((table, 4, 4), 4)]
    items += [((t, 4, 9), slot) for t in dead for slot in (4, 8)]
    for item, slot in items:
        enc = RangeEncoder()
        with pytest.raises(ValueError):
            enc.encode_intervals([(item, slot)])
        assert (enc.low, enc.range, enc.symbols_coded) == (0, MASK, 0)
        assert enc.finish() == RangeEncoder().finish()
    for item in ((table, 4, 4), (table, 5, 2), *((t, 4, 9) for t in dead)):
        dec = RangeDecoder.from_bytes(bytes(range(7, 250, 13)))
        state = (dec.value, dec.range, dec._pos)
        with pytest.raises(ValueError):
            dec.decode_walk(_descent_walk(*item))
        assert (dec.value, dec.range, dec._pos) == state


@pytest.mark.parametrize("bad", [[0, 1, TOTAL_MAX + 1], [0, 0, 0], *DEAD_DESCENT_TABLES])
@pytest.mark.parametrize("slot", [0, 15])
def test_descent_checks_each_level_table(bad, slot):
    # ValueError at the level of width 4, the two levels before it coded
    # as the level-by-level stream codes them
    table = lambda n, w: bad if w == 4 else [0, 3, 8]  # noqa: E731
    enc, one = RangeEncoder(), RangeEncoder()
    with pytest.raises(ValueError):
        enc.encode_intervals([((table, 0, 16), slot)])
    one.encode_intervals(_descent_decisions(table, 0, 16, slot)[:2])
    state = (enc.low, enc.range, enc.symbols_coded)
    assert state == (one.low, one.range, one.symbols_coded) != (0, MASK, 0)
    assert enc.finish() == one.finish()
    dec, ref = RangeDecoder.from_bytes(b"\x01" * 9), RangeDecoder.from_bytes(b"\x01" * 9)
    with pytest.raises(ValueError):
        dec.decode_walk(_descent_walk(table, 0, 16))
    ref.decode_target([0, 3, 8])
    ref.decode_target([0, 3, 8])
    assert (dec.value, dec.range, dec._pos) == (ref.value, ref.range, ref._pos)
