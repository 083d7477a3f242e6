"""CLI: end-to-end subcommand runs against temp files."""

import csv

import pytest

from msetzip.cli import main
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


class TestBench:
    def test_bench_fib_csv(self, tmp_path):
        out = tmp_path / "fib.csv"
        assert run("bench-fib", "--n-values", "16,32", "--k", "500",
                   "--seed", "5", "--csv", str(out)) == 0
        rows = list(csv.reader(out.open()))
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


class TestArgumentErrors:
    def test_unknown_length_model_spec(self):
        with pytest.raises(SystemExit):
            run("compress", "-", "--regime", "general", "--length-model", "zipf:3")

    def test_bad_theta(self):
        with pytest.raises(SystemExit):
            run("compress", "-", "--theta", "one half")

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            run()
