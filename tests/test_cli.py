"""CLI: end-to-end subcommand runs against temp files."""

import csv
import random

import pytest

from msetzip import CodecParams, GeneralRegime, UniformLength, compress, container
from msetzip.bits import BitString
from msetzip.cli import _parse_members, main
from msetzip.container import MAGIC


def run(*argv):
    return main(list(argv))


class TestCompressDecompress:
    def test_hex_fixed_round_trip(self, tmp_path):
        src = tmp_path / "in.hex"
        box = tmp_path / "out.msz"
        back = tmp_path / "back.hex"
        lines = ["deadbeef", "00000000", "deadbeef", "ffffffff"]
        src.write_text("\n".join(lines) + "\n")

        assert run("compress", str(src), "--out", str(box)) == 0
        assert box.read_bytes().startswith(MAGIC)
        assert run("decompress", str(box), "--out", str(back)) == 0
        assert back.read_text().split() == sorted(lines)

    def test_bits_selfdelim_round_trip(self, tmp_path):
        src = tmp_path / "in.bits"
        box = tmp_path / "out.msz"
        back = tmp_path / "back.bits"
        words = ["11", "011", "0011", "11", "10011"]
        src.write_text("\n".join(words) + "\n")

        assert run("compress", str(src), "--regime", "selfdelim", "--family", "betabin",
                   "--out", str(box)) == 0
        assert run("decompress", str(box), "--out", str(back)) == 0
        assert sorted(back.read_text().split()) == sorted(words)

    def test_general_regime_needs_length_model(self, tmp_path, capsys):
        src = tmp_path / "in.bits"
        src.write_text("01\n011\n\n")
        box = tmp_path / "out.msz"

        assert run("compress", str(src), "--regime", "general", "--out", str(box)) == 1
        assert "length-model" in capsys.readouterr().err

        assert run("compress", str(src), "--regime", "general",
                   "--length-model", "uniform:2:3", "--out", str(box)) == 0
        back = tmp_path / "back.bits"
        assert run("decompress", str(box), "--out", str(back)) == 0
        assert back.read_text().split() == ["01", "011"]

    @pytest.mark.parametrize(
        "spec,words",
        [
            ("point:4", ["0110", "1101", "0110"]),
            ("geometric:1/3", ["1", "01", "0", "110100", "01"]),
        ],
    )
    def test_general_regime_length_models_round_trip(self, tmp_path, spec, words):
        src = tmp_path / "in.bits"
        src.write_text("\n".join(words) + "\n")
        box = tmp_path / "out.msz"
        back = tmp_path / "back.bits"
        assert run("compress", str(src), "--regime", "general", "--length-model", spec,
                   "--out", str(box)) == 0
        assert run("decompress", str(box), "--out", str(back)) == 0
        assert back.read_text().split() == sorted(words)

    def test_raw_format_round_trip(self, tmp_path):
        src = tmp_path / "in.raw"
        box = tmp_path / "out.msz"
        back = tmp_path / "back.raw"
        # three 12-bit records, zero-padded to 5 bytes
        src.write_bytes(bytes([0b10100000, 0b00010101, 0b00000000, 0b11111111, 0b11110000]))

        assert run("compress", str(src), "--input-format", "raw", "--length", "12",
                   "--out", str(box)) == 0
        assert run("decompress", str(box), "--output-format", "raw",
                   "--out", str(back)) == 0
        # members come back sorted; re-parse both sides as 12-bit records
        def records(blob):
            bits = "".join(f"{b:08b}" for b in blob)
            return sorted(bits[i * 12:(i + 1) * 12] for i in range(3))

        assert records(back.read_bytes()) == records(src.read_bytes())

    def test_raw_nonzero_padding_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.raw"
        src.write_bytes(bytes([0xFF, 0xFF]))  # 12-bit record + 1-padding
        assert run("compress", str(src), "--input-format", "raw", "--length", "12") == 1
        assert "padding" in capsys.readouterr().err

    def test_raw_input_reads_every_record_that_fits(self, tmp_path):
        # 16 bits hold five 3-bit records; the one bit left is padding
        src = tmp_path / "in.raw"
        src.write_bytes(bytes([0x05, 0x80]))
        box = tmp_path / "out.msz"
        back = tmp_path / "back.bits"
        assert run("compress", str(src), "--input-format", "raw", "--length", "3",
                   "--out", str(box)) == 0
        assert run("decompress", str(box), "--output-format", "bits", "--out", str(back)) == 0
        assert back.read_text().split() == ["000", "000", "000", "001", "011"]

    @pytest.mark.parametrize(
        "flags,data,message",
        [
            ([], b"\x00", "needs --length"),
            (["--length", "0"], b"\x00", "needs --length"),
            (["--length", "16"], b"\x00\x00\x00", "whole number"),  # 8 bits left over
        ],
    )
    def test_raw_input_errors(self, tmp_path, capsys, flags, data, message):
        src = tmp_path / "in.raw"
        src.write_bytes(data)
        box = tmp_path / "out.msz"
        assert run("compress", str(src), "--input-format", "raw", *flags, "--out", str(box)) == 1
        assert message in capsys.readouterr().err
        assert not box.exists()

    @pytest.mark.parametrize("length", range(1, 131))
    def test_raw_records_match_their_bits(self, length):
        # the records are the file's bits cut every length bits, as one
        # BitString.bit() call per bit reads them
        rng = random.Random(length)
        for n_rec in (0, 1, 3, 8):
            pad = -n_rec * length % 8  # zero bits up to a whole byte
            if pad >= length:  # they would hold another record
                continue
            total = n_rec * length + pad
            data = (rng.getrandbits(n_rec * length) << pad).to_bytes(total // 8, "big")
            full = BitString(data, total)
            want = [
                BitString.from_bits(full.bit(i * length + j) for j in range(length))
                for i in range(n_rec)
            ]
            assert _parse_members(data, "raw", length) == want

    def test_empty_input_needs_length(self, tmp_path, capsys):
        src = tmp_path / "empty"
        src.write_text("")
        box = tmp_path / "out.msz"
        assert run("compress", str(src), "--out", str(box)) == 1
        assert "--length" in capsys.readouterr().err

        assert run("compress", str(src), "--length", "8", "--out", str(box)) == 0
        back = tmp_path / "back"
        assert run("decompress", str(box), "--out", str(back)) == 0
        assert back.read_text() == ""

    def test_theta_flag_changes_container(self, tmp_path):
        src = tmp_path / "in.hex"
        src.write_text("a0\nb1\n")
        one = tmp_path / "one.msz"
        two = tmp_path / "two.msz"
        assert run("compress", str(src), "--out", str(one)) == 0
        assert run("compress", str(src), "--theta", "1/3", "--out", str(two)) == 0
        assert one.read_bytes() != two.read_bytes()

    def test_bad_container_reports_error(self, tmp_path, capsys):
        box = tmp_path / "bogus.msz"
        box.write_bytes(b"not a container at all")
        assert run("decompress", str(box)) == 1
        err = capsys.readouterr().err
        assert err.startswith("msetzip:")



class TestMalformedInput:
    def test_bits_line_with_other_characters_rejected(self, tmp_path, capsys):
        # from_str would drop the "x" and silently store 011
        src = tmp_path / "in.bits"
        src.write_text("01\n01x1\n")
        box = tmp_path / "out.msz"
        assert run("compress", str(src), "--regime", "general",
                   "--length-model", "uniform:0:8", "--out", str(box)) == 1
        err = capsys.readouterr().err
        assert err.startswith("msetzip:") and "01x1" in err
        assert not box.exists()

    @pytest.mark.parametrize("line", ["deadbeeg", "abc", "de adbeef"])
    def test_invalid_hex_line_rejected(self, tmp_path, capsys, line):
        src = tmp_path / "in.hex"
        src.write_text(f"deadbeef\n{line}\n")
        assert run("compress", str(src), "--out", str(tmp_path / "out.msz")) == 1
        err = capsys.readouterr().err
        assert err.startswith("msetzip:") and line in err

    @pytest.mark.parametrize("fmt", ["hex", "bits"])
    def test_non_ascii_input_rejected(self, tmp_path, capsys, fmt):
        src = tmp_path / "in.txt"
        src.write_bytes("0110\n01\u00e91\n".encode("utf-8"))
        assert run("compress", str(src), "--input-format", fmt, "--regime", "general",
                   "--length-model", "uniform:0:8", "--out", str(tmp_path / "out.msz")) == 1
        assert capsys.readouterr().err.startswith("msetzip:")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--length", "0"],
            ["--length", "70000"],
            ["--theta", "3/2"],
            ["--theta", "1/8589934592"],
            ["--family", "betabin", "--alpha", "0"],
        ],
        ids=" ".join,
    )
    def test_bad_compression_parameters_rejected(self, tmp_path, capsys, flags):
        src = tmp_path / "in.hex"
        src.write_text("deadbeef\n")
        box = tmp_path / "out.msz"
        assert run("compress", str(src), *flags, "--out", str(box)) == 1
        assert capsys.readouterr().err.startswith("msetzip:")
        assert not box.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--family", "binomial", "--alpha", "3", "--beta", "7"],
            ["--family", "betabin", "--theta", "1/3"],
            ["--regime", "fixed", "--length-model", "uniform:1:9"],
            ["--regime", "selfdelim", "--length-model", "point:3"],
            ["--regime", "general", "--length-model", "geometric:1/2", "--length", "9"],
        ],
        ids=" ".join,
    )
    def test_flags_the_codec_would_not_read_rejected(self, tmp_path, capsys, flags):
        # each used to write the container of the same run without the flag
        src = tmp_path / "in.bits"
        src.write_text("011\n11\n")
        box = tmp_path / "out.msz"
        assert run("compress", str(src), "--input-format", "bits", *flags, "--out", str(box)) == 1
        err = capsys.readouterr().err
        assert err.startswith("msetzip:") and "is read only with" in err
        assert not box.exists()

    def test_length_is_read_with_raw_input_in_any_regime(self, tmp_path):
        src = tmp_path / "in.raw"
        src.write_bytes(bytes([0b10110011]))
        box = tmp_path / "out.msz"
        assert run("compress", str(src), "--regime", "general", "--length-model", "point:4",
                   "--input-format", "raw", "--length", "4", "--out", str(box)) == 0
        assert [m.to_str() for m in container.decompress(box.read_bytes())] == ["0011", "1011"]

    @pytest.mark.parametrize(
        "family, defaults",
        [([], ["--theta", "1/2"]), (["--family", "betabin"], ["--alpha", "1/2", "--beta", "1/2"])],
        ids=["binomial", "betabin"],
    )
    def test_defaults_are_one_half(self, tmp_path, family, defaults):
        src = tmp_path / "in.hex"
        src.write_text("a0\nb1\n")
        bare, spelled = tmp_path / "bare.msz", tmp_path / "spelled.msz"
        assert run("compress", str(src), *family, "--out", str(bare)) == 0
        assert run("compress", str(src), *family, *defaults, "--out", str(spelled)) == 0
        assert bare.read_bytes() == spelled.read_bytes()

    def test_too_many_members_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(container, "MAX_MEMBERS", 3)
        src = tmp_path / "in.bits"
        src.write_text("0\n1\n1\n0\n")
        box = tmp_path / "out.msz"
        assert run("compress", str(src), "--input-format", "bits", "--length", "1",
                   "--out", str(box)) == 1
        err = capsys.readouterr().err
        assert err.startswith("msetzip:") and "capacity 3" in err
        assert not box.exists()


class TestUnreadableOutput:
    # compress drops blank text lines and splits raw input into as many
    # equal-length records as fit, so decompress refuses output that
    # would read back as another multiset
    @staticmethod
    def container(tmp_path, members):
        box = tmp_path / "in.msz"
        box.write_bytes(compress(members, CodecParams(GeneralRegime(UniformLength(0, 8)))))
        return str(box)

    @pytest.mark.parametrize(
        "fmt,members",
        [
            (None, ["", "01", "011"]),
            ("bits", ["", "01", "011"]),
            ("hex", ["", "00001111"]),
            ("raw", ["", "01", "011"]),
            ("raw", ["01", "011"]),
            ("raw", ["000", "001", "011"]),  # 7 padding bits hold two more records
            ("hex", ["0000111"]),  # not a whole number of bytes
        ],
    )
    def test_refused_without_output(self, tmp_path, capsys, fmt, members):
        back = tmp_path / "back"
        flags = ["--output-format", fmt] if fmt else []
        assert run("decompress", self.container(tmp_path, members), *flags,
                   "--out", str(back)) == 1
        assert capsys.readouterr().err.startswith("msetzip:")
        assert not back.exists()

    def test_raw_records_filling_whole_bytes_round_trip(self, tmp_path):
        members = [f"{i:03b}" for i in range(8)]
        back = tmp_path / "back.raw"
        assert run("decompress", self.container(tmp_path, members), "--output-format", "raw",
                   "--out", str(back)) == 0
        bits = "".join(f"{b:08b}" for b in back.read_bytes())
        assert [bits[i:i + 3] for i in range(0, 24, 3)] == members


class TestBench:
    def test_bench_fib_csv(self, tmp_path):
        out = tmp_path / "fib.csv"
        assert run("bench-fib", "--n-values", "16,32", "--k", "500",
                   "--seed", "5", "--csv", str(out)) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][0] == "N"
        assert len(rows) == 1 + 2 * 4  # two Ns, four methods each
        assert {r[1] for r in rows[1:]} == {
            "binomial", "beta_binomial", "dirichlet_multinomial", "concat"
        }

    def test_bench_rsha1_csv_to_stdout(self, capsys):
        assert run("bench-rsha1", "--n-values", "16") == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 1 + 3
        assert all(r[0] == "16" for r in rows[1:])


class TestFileErrors:
    # a path that cannot be read or written is reported, not a traceback
    @pytest.mark.parametrize("command", ["compress", "decompress"])
    def test_missing_input(self, tmp_path, capsys, command):
        missing = tmp_path / "missing"
        assert run(command, str(missing), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"msetzip: {missing}: No such file or directory\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["compress", "decompress"])
    def test_unwritable_out(self, tmp_path, capsys, command):
        src = tmp_path / "in.hex"
        src.write_text("deadbeef\n")
        if command == "decompress":
            src, box = tmp_path / "in.msz", src
            assert run("compress", str(box), "--out", str(src)) == 0
        out = tmp_path / "no-such-dir" / "out"
        assert run(command, str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"msetzip: {out}: No such file or directory\n"

    def test_unwritable_out_fails_before_the_coding(self, tmp_path, capsys, monkeypatch):
        from msetzip import cli

        def unexpected(*args):
            raise AssertionError("the input was coded")

        monkeypatch.setattr(cli, "compress", unexpected)
        src = tmp_path / "in.hex"
        src.write_text("deadbeef\n")
        out = tmp_path / "no-such-dir" / "out"
        assert run("compress", str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"msetzip: {out}: No such file or directory\n"

    @pytest.mark.parametrize("existing", [None, b"", b"an earlier container"])
    @pytest.mark.parametrize(
        "text, flags",
        [
            ("deadbeef\n00\n", ["--length", "32"]),  # a member the regime cannot code
            ("0\n1\n1\n0\n", ["--input-format", "bits", "--length", "1"]),  # too many
        ],
        ids=["mismatch", "too-many"],
    )
    def test_refused_input_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                 existing, text, flags):
        # --out is opened before the coding; an input refused there removes
        # the file only if this run created it, and never changes its bytes
        monkeypatch.setattr(container, "MAX_MEMBERS", 3)
        src = tmp_path / "in.txt"
        src.write_text(text)
        out = tmp_path / "out.msz"
        if existing is not None:
            out.write_bytes(existing)
        assert run("compress", str(src), *flags, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("msetzip:")
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing

    @pytest.mark.parametrize("command", ["bench-fib", "bench-rsha1"])
    def test_unwritable_csv_fails_before_the_run(self, tmp_path, capsys, monkeypatch, command):
        from msetzip import bench

        def unexpected(*args):
            raise AssertionError("the benchmark ran")

        monkeypatch.setattr(bench, "bench_fib", unexpected)
        monkeypatch.setattr(bench, "bench_rsha1", unexpected)
        out = tmp_path / "no-such-dir" / "out.csv"
        assert run(command, "--n-values", "16", "--csv", str(out)) == 1
        assert capsys.readouterr().err == f"msetzip: {out}: No such file or directory\n"

    def test_directory_as_input(self, tmp_path, capsys):
        assert run("decompress", str(tmp_path)) == 1
        assert capsys.readouterr().err == f"msetzip: {tmp_path}: Is a directory\n"


class TestArgumentErrors:
    @pytest.mark.parametrize("spec", ["zipf:3", "uniform:3", "point:x", "geometric:1/0"])
    def test_unknown_length_model_spec(self, spec):
        with pytest.raises(SystemExit) as exit_:
            run("compress", "-", "--regime", "general", "--length-model", spec)
        assert exit_.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bench-fib", "--n-values", "0"], "--n-values"),
            (["bench-rsha1", "--n-values", "-3"], "--n-values"),
            (["bench-rsha1", "--n-values", "16,x"], "--n-values"),
            (["bench-fib", "--k", "0"], "--k"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_bad_bench_grid(self, capsys, argv, flag):
        # these used to end in a traceback from the benchmark itself
        with pytest.raises(SystemExit) as exit_:
            run(*argv)
        assert exit_.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_bad_theta(self):
        with pytest.raises(SystemExit):
            run("compress", "-", "--theta", "one half")

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            run()
