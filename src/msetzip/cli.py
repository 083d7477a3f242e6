"""Command-line interface.

Subcommands:

    compress     read sequences, write a container
    decompress   read a container, write the sequences back
    bench-rsha1  random-hash experiment, CSV output
    bench-fib    Fibonacci-codeword experiment, CSV output

Input formats for compress: `hex` (newline-delimited hex strings,
byte-multiple lengths), `bits` (newline-delimited ASCII 0/1 strings),
`raw` (concatenated L-bit records, zero-padded to a byte).  Fixed-mode
defaults to hex, the variable regimes to bits.
"""

from __future__ import annotations

import argparse
import string
import sys
from fractions import Fraction

from .bench import DEFAULT_N_GRID, bench_fib, bench_rsha1, write_csv
from .bits import BitString, BitWriter
from .container import compress, decompress
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


def _n_values(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad N list {text!r}: {e}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="msetzip", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="compress a multiset of bit strings")
    c.add_argument("input", nargs="?", default="-", help="input file, - for stdin")
    c.add_argument("--out", default="-", help="output container file, - for stdout")
    c.add_argument("--regime", choices=["fixed", "selfdelim", "general"], default="fixed")
    c.add_argument("--family", choices=["binomial", "betabin"], default="binomial")
    c.add_argument("--length", type=int, help="member length for the fixed regime")
    c.add_argument("--theta", type=_fraction, default=Fraction(1, 2), metavar="A/B")
    c.add_argument("--alpha", type=_fraction, default=Fraction(1, 2), metavar="A/B")
    c.add_argument("--beta", type=_fraction, default=Fraction(1, 2), metavar="A/B")
    c.add_argument(
        "--length-model",
        type=_length_model,
        metavar="SPEC",
        help="general regime: point:L, uniform:LO:HI, or geometric:A/B",
    )
    c.add_argument("--input-format", choices=["hex", "bits", "raw"])
    c.set_defaults(func=cmd_compress)

    d = sub.add_parser("decompress", help="decompress a container")
    d.add_argument("input", nargs="?", default="-", help="container file, - for stdin")
    d.add_argument("--out", default="-", help="output file, - for stdout")
    d.add_argument("--output-format", choices=["hex", "bits", "raw"])
    d.set_defaults(func=cmd_decompress)

    for name, fn in (("bench-rsha1", cmd_bench_rsha1), ("bench-fib", cmd_bench_fib)):
        b = sub.add_parser(name, help=f"run the {name[6:]} experiment")
        b.add_argument("--seed", type=int, default=0)
        b.add_argument("--csv", default="-", help="CSV output path, - for stdout")
        b.add_argument(
            "--n-values",
            type=_n_values,
            default=DEFAULT_N_GRID,
            metavar="N1,N2,...",
            help="benchmark points (default: powers of two, 16..16384)",
        )
        if name == "bench-fib":
            b.add_argument("--k", type=int, default=100_000, help="alphabet bound")
        b.set_defaults(func=fn)
    return p


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as f:
        return f.read()


def _write_bytes(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as f:
            f.write(data)


def _parse_members(data: bytes, fmt: str, length: int | None) -> list[BitString]:
    if fmt == "raw":
        if length is None or length < 1:
            raise MsetzipError("raw input needs --length")
        total = 8 * len(data)
        n_rec, leftover = divmod(total, length)
        if leftover >= 8:
            raise MsetzipError(f"raw input is not a whole number of {length}-bit records")
        full = BitString(data, total)
        members = [
            BitString.from_bits(full.bit(i * length + j) for j in range(length))
            for i in range(n_rec)
        ]
        if any(full.bit(n_rec * length + j) for j in range(leftover)):
            raise MsetzipError("raw input has nonzero padding bits")
        return members
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


def cmd_compress(args) -> int:
    if args.family == "binomial":
        family = BinomialFamily(args.theta)
    else:
        family = BetaBinomialFamily(args.alpha, args.beta)

    fmt = args.input_format or ("hex" if args.regime == "fixed" else "bits")
    data = _read_bytes(args.input)
    members = _parse_members(data, fmt, args.length)

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

    container = compress(members, CodecParams(regime=regime, family=family))
    _write_bytes(args.out, container)
    return 0


def cmd_decompress(args) -> int:
    members = decompress(_read_bytes(args.input))
    fmt = args.output_format
    if fmt is None:
        fmt = "hex" if members and all(m.nbits % 8 == 0 and m.nbits for m in members) else "bits"
    if fmt == "hex":
        if any(m.nbits % 8 for m in members):
            raise MsetzipError("hex output needs byte-multiple member lengths")
        text = "".join(m.data.hex() + "\n" for m in members)
        _write_bytes(args.out, text.encode("ascii"))
    elif fmt == "bits":
        text = "".join(m.to_str() + "\n" for m in members)
        _write_bytes(args.out, text.encode("ascii"))
    else:
        w = BitWriter()
        for m in members:
            w.write_bitstring(m)
        _write_bytes(args.out, w.getvalue())
    return 0


def _emit_csv(records, path: str) -> None:
    if path == "-":
        write_csv(records, sys.stdout)
    else:
        with open(path, "w", newline="") as f:
            write_csv(records, f)


def cmd_bench_rsha1(args) -> int:
    _emit_csv(bench_rsha1(args.n_values, args.seed), args.csv)
    return 0


def cmd_bench_fib(args) -> int:
    _emit_csv(bench_fib(args.n_values, args.seed, args.k), args.csv)
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
