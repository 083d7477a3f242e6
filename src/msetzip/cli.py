"""Command-line interface.

Subcommands:

    compress     read sequences, write a container
    decompress   read a container, write the sequences back
    bench-rsha1  random-hash experiment, CSV output
    bench-fib    Fibonacci-codeword experiment, CSV output

Input formats for compress: `hex` (newline-delimited hex strings,
byte-multiple lengths), `bits` (newline-delimited ASCII 0/1 strings),
`raw` (L-bit records back to back, L from --length).  A raw file holds as
many records as fit; the bits left over, fewer than L and fewer than 8,
are padding and must be zero, so when L < 8, padding long enough for
whole records reads as zero records.  decompress writes raw output by the
same rule.  Fixed-mode defaults to hex, the variable regimes to bits.
"""

from __future__ import annotations

import argparse
import os
import string
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction

from .bits import BitString, BitWriter
from .container import compress, decompress, serialize_header
from .errors import MsetzipError
from .models import FibTerminatorDetector, GeometricLength, PointLength, UniformLength
from .treecodec import (
    BetaBinomialFamily,
    BinomialFamily,
    CodecParams,
    FixedRegime,
    GeneralRegime,
    SelfDelimitingRegime,
)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {e}")


def _length_model(text: str):
    kind, _, rest = text.partition(":")
    try:
        if kind == "point":
            return PointLength(int(rest))
        if kind == "uniform":
            lo, hi = rest.split(":")
            return UniformLength(int(lo), int(hi))
        if kind == "geometric":
            return GeometricLength(Fraction(rest))
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad length model {text!r}: {e}")
    raise argparse.ArgumentTypeError(
        f"unknown length model {text!r} (expected point:L, uniform:LO:HI, geometric:A/B)"
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _n_values(text: str) -> list[int]:
    return [_positive_int(t) for t in text.split(",") if t]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="msetzip", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="compress a multiset of bit strings")
    c.add_argument("input", nargs="?", default="-", help="input file, - for stdin")
    c.add_argument("--out", default="-", help="output container file, - for stdout")
    c.add_argument("--regime", choices=["fixed", "selfdelim", "general"], default="fixed")
    c.add_argument("--family", choices=["binomial", "betabin"], default="binomial")
    c.add_argument("--length", type=int, help="member length: fixed regime or raw input")
    c.add_argument("--theta", type=_fraction, metavar="A/B", help="binomial (default 1/2)")
    c.add_argument("--alpha", type=_fraction, metavar="A/B", help="betabin (default 1/2)")
    c.add_argument("--beta", type=_fraction, metavar="A/B", help="betabin (default 1/2)")
    c.add_argument(
        "--length-model",
        type=_length_model,
        metavar="SPEC",
        help="general regime: point:L, uniform:LO:HI, or geometric:A/B",
    )
    c.add_argument(
        "--input-format",
        choices=["hex", "bits", "raw"],
        help="raw: as many --length-bit records as fit, then zero padding "
        "shorter than one record and than a byte",
    )
    c.set_defaults(func=cmd_compress)

    d = sub.add_parser("decompress", help="decompress a container")
    d.add_argument("input", nargs="?", default="-", help="container file, - for stdin")
    d.add_argument("--out", default="-", help="output file, - for stdout")
    d.add_argument("--output-format", choices=["hex", "bits", "raw"])
    d.set_defaults(func=cmd_decompress)

    for name in ("bench-rsha1", "bench-fib"):
        b = sub.add_parser(name, help=f"run the {name[6:]} experiment")
        b.add_argument("--seed", type=int, default=0)
        b.add_argument("--csv", default="-", help="CSV output path, - for stdout")
        b.add_argument(
            "--n-values",
            type=_n_values,
            metavar="N1,N2,...",
            help="benchmark points (default: powers of two, 16..16384)",
        )
        if name == "bench-fib":
            b.add_argument("--k", type=_positive_int, default=100_000, help="alphabet bound")
        b.set_defaults(func=cmd_bench)
    return p


def _open(path: str, mode: str, **kwargs):
    """open(path, mode), or an MsetzipError naming the path and the reason."""
    try:
        return open(path, mode, **kwargs)
    except OSError as e:
        raise MsetzipError(f"{path}: {e.strerror or e}") from None


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with _open(path, "rb") as f:
        return f.read()


def _write_bytes(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
    else:
        with _open(path, "wb") as f:
            f.write(data)


@contextmanager
def _out_first(path: str):
    """Open path for appending before the work in the with block, so a path
    that cannot be written fails before the work, not after it.  If the
    work fails, a file that this open created is removed; an existing
    file keeps its bytes."""
    created = path != "-" and not os.path.lexists(path)
    if path != "-":
        _open(path, "ab").close()
    try:
        yield
    except BaseException:
        if created:
            os.remove(path)
        raise


def _parse_members(data: bytes, fmt: str, length: int | None) -> list[BitString]:
    if fmt == "raw":
        if length is None or length < 1:
            raise MsetzipError("raw input needs --length")
        total = 8 * len(data)
        n_rec, leftover = divmod(total, length)
        if leftover >= 8:
            raise MsetzipError(f"raw input is not a whole number of {length}-bit records")
        bits = BitString(data, total).to_str()
        if "1" in bits[total - leftover :]:
            raise MsetzipError("raw input has nonzero padding bits")
        starts = range(0, total - leftover, length)
        return [BitString.from_str(bits[i : i + length]) for i in starts]
    try:
        lines = [ln.strip() for ln in data.decode("ascii").splitlines()]
    except UnicodeDecodeError as e:
        raise MsetzipError(f"{fmt} input is not ASCII text (byte {e.start})") from None
    lines = [ln for ln in lines if ln]
    digits = string.hexdigits if fmt == "hex" else "01"
    for ln in lines:
        if ln.strip(digits) or (fmt == "hex" and len(ln) % 2):
            raise MsetzipError(f"{fmt} input has a malformed line: {ln[:40]!r}")
    if fmt == "hex":
        return [BitString(bytes.fromhex(ln), 4 * len(ln)) for ln in lines]
    return [BitString.from_str(ln) for ln in lines]


def _codec_params(args, members: list[BitString]) -> CodecParams:
    half = Fraction(1, 2)
    if args.family == "binomial":
        family = BinomialFamily(half if args.theta is None else args.theta)
    else:
        alpha, beta = (half if v is None else v for v in (args.alpha, args.beta))
        family = BetaBinomialFamily(alpha, beta)
    if args.regime == "fixed":
        length = args.length
        if length is None:
            if not members:
                raise MsetzipError("empty input: fixed regime needs --length")
            length = members[0].nbits
        regime = FixedRegime(length)
    elif args.regime == "selfdelim":
        regime = SelfDelimitingRegime(FibTerminatorDetector())
    else:
        if args.length_model is None:
            raise MsetzipError("general regime needs --length-model")
        regime = GeneralRegime(args.length_model)
    return CodecParams(regime=regime, family=family)


def cmd_compress(args) -> int:
    fmt = args.input_format or ("hex" if args.regime == "fixed" else "bits")
    # a flag the chosen family, regime or input format does not read is refused
    binomial = args.family == "binomial"
    for flag, value, reads, read_with in (
        ("--theta", args.theta, binomial, "--family binomial"),
        ("--alpha", args.alpha, not binomial, "--family betabin"),
        ("--beta", args.beta, not binomial, "--family betabin"),
        ("--length-model", args.length_model, args.regime == "general", "--regime general"),
        ("--length", args.length, args.regime == "fixed" or fmt == "raw",
         "--regime fixed or raw input"),
    ):
        if value is not None and not reads:
            raise MsetzipError(f"{flag} is read only with {read_with}")
    members = _parse_members(_read_bytes(args.input), fmt, args.length)
    try:
        params = _codec_params(args, members)
        serialize_header(params)  # refuses a field the container cannot hold
    except ValueError as e:
        raise MsetzipError(f"bad compression parameters: {e}") from None
    with _out_first(args.out):
        try:
            container = compress(members, params)
        except ValueError as e:  # more members than the container can count
            raise MsetzipError(str(e)) from None
    _write_bytes(args.out, container)
    return 0


def cmd_decompress(args) -> int:
    data = _read_bytes(args.input)
    with _out_first(args.out):
        output = _format_members(decompress(data), args.output_format)
    _write_bytes(args.out, output)
    return 0


def _format_members(members: list[BitString], fmt: str | None) -> bytes:
    if fmt is None:
        fmt = "hex" if members and all(m.nbits % 8 == 0 and m.nbits for m in members) else "bits"
    # Refuse output that compress would read back as another multiset:
    # text input drops blank lines, and raw input splits the stream into
    # as many records of one length as fit, zero padding included.
    if fmt != "raw":
        if any(m.nbits == 0 for m in members):
            raise MsetzipError(f"{fmt} output cannot hold an empty member")
    elif members:
        length = members[0].nbits
        if length == 0 or any(m.nbits != length for m in members):
            raise MsetzipError("raw output needs members of one nonzero length")
        if (-len(members) * length) % 8 >= length:
            raise MsetzipError(f"raw output would pad to a whole extra {length}-bit record")
    if fmt == "hex":
        if any(m.nbits % 8 for m in members):
            raise MsetzipError("hex output needs byte-multiple member lengths")
        return "".join(m.data.hex() + "\n" for m in members).encode("ascii")
    if fmt == "bits":
        return "".join(m.to_str() + "\n" for m in members).encode("ascii")
    w = BitWriter()
    for m in members:
        w.write_bitstring(m)
    return w.getvalue()


def cmd_bench(args) -> int:
    # bench loads here: its records are a dataclass, and compress and
    # decompress start without dataclasses
    from . import bench

    n_values = bench.DEFAULT_N_GRID if args.n_values is None else args.n_values
    # the CSV is opened first, so a path it cannot write fails before the run
    out = nullcontext(sys.stdout) if args.csv == "-" else _open(args.csv, "w", newline="")
    with out as f:
        if args.command == "bench-fib":
            records = bench.bench_fib(n_values, args.seed, args.k)
        else:
            records = bench.bench_rsha1(n_values, args.seed)
        bench.write_csv(records, f)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MsetzipError as e:
        print(f"msetzip: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
