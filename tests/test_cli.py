"""Command line surface: round trips, report determinism, exit codes, formats."""

import argparse
import collections
import csv
import io
import json

import numpy as np
import pytest

from chaosmark import (SchemeConfig, chaos_analysis, cli, fileio,
                       generate_carriers, tm_encoding)
from chaosmark.cli import EXIT_FALSE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from pgm_oracle import read_vector_pgm

MACHINE_TEXT = """\
states:   scan accept
alphabet: 1 #
blank:    #
initial:  scan
halting:  accept
scan 1 -> scan 1 R
scan # -> accept 1 R
"""


# PGM separators: every byte bytes.isspace() accepts, and CRLF.
PGM_SPACES = (b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c")
PGM_COMMENTS = (b"#", b"# c", b"## 2 2", b"#P2 1 1 255 0", b"#\x0b\x0c 7")


def pgm_blob(rng) -> bytes:
    """A seeded PGM file: valid, near-valid, truncated, or comments only."""
    def pick(options):
        return options[int(rng.integers(len(options)))]

    def sep():
        out = b"".join(pick(PGM_SPACES) for _ in range(rng.integers(1, 3)))
        if rng.random() < 0.3:
            out += pick(PGM_COMMENTS) + pick((b"\n", b"\r\n", b"\r", b""))
        return out

    if rng.random() < 0.05:
        return b"".join(pick(PGM_COMMENTS) + pick(PGM_SPACES)
                        for _ in range(rng.integers(0, 4)))
    magic = pick((b"P2", b"P5") * 10 + (b"P6", b"P", b"p2", b"P2#", b"P5x"))
    width, height = (int(v) for v in rng.integers(1, 4, 2))
    maxval = pick((3, 255, 255, 300, 65535, 0, 70000))
    head = [magic, str(width).encode(), str(height).encode(),
            str(maxval).encode()]
    if rng.random() < 0.1:
        head[int(rng.integers(1, 4))] = pick((b"x", b"2#3", b"-1", b"0",
                                              b"1.5"))
    blob = sep()[:int(rng.integers(0, 2))]
    blob += b"".join(t + sep() for t in head[:3])
    count = width * height
    if magic == b"P5":
        # one whitespace byte ends the header, unless the draw says otherwise
        blob += head[3] + (sep() if rng.random() < 0.2
                           else pick(PGM_SPACES)[:1])
        size = count * (2 if maxval > 255 else 1) + int(rng.integers(-1, 2))
        blob += rng.bytes(max(size, 0))
    else:
        blob += head[3] + sep()
        samples = max(count + int(rng.integers(-1, 2)), 0)
        for v in rng.integers(-1, maxval + 2, samples):
            blob += pick((str(v).encode(),) * 8 + (b"1#2", b"z")) + sep()
    if rng.random() < 0.2:
        blob = blob[:int(rng.integers(0, len(blob) + 1))]
    return blob


@pytest.fixture
def host_json(tmp_path):
    path = tmp_path / "host.json"
    rng = np.random.default_rng(17)
    fileio.write_vector(path, rng.standard_normal(8))
    return path


class TestEmbedDecode:
    def test_round_trip(self, tmp_path, host_json, capsys):
        stego = tmp_path / "stego.json"
        code = main(["embed", "--scheme", "ss", "--host", str(host_json),
                     "--message", "10110100", "--gamma", "6.0",
                     "--key", "9", "--out", str(stego)])
        assert code == EXIT_OK
        assert "embedded 8 bits" in capsys.readouterr().out

        code = main(["decode", "--scheme", "ss", "--stego", str(stego),
                     "--nc", "8", "--key", "9"])
        assert code == EXIT_OK
        out = capsys.readouterr()
        assert out.out.strip() == "10110100"
        assert out.err == ""

    def test_meta_file_carries_fingerprint_not_key(self, tmp_path, host_json):
        stego = tmp_path / "stego.json"
        main(["embed", "--scheme", "ss", "--host", str(host_json),
              "--message", "1011", "--gamma", "6.0", "--key", "9",
              "--out", str(stego)])
        meta = json.loads((tmp_path / "stego.json.meta.json").read_text())
        assert meta["schema"] == "chaosmark/3"
        assert meta["config"]["key_fingerprint"] == fileio.key_fingerprint(9)
        assert "key" not in meta["config"]
        assert meta["distortion_inf"] > 0.0

    def test_explicit_meta_path_and_decode_record(self, tmp_path, host_json,
                                                  capsys):
        stego = tmp_path / "s.json"
        meta = tmp_path / "m.json"
        record = tmp_path / "r.json"
        main(["embed", "--scheme", "iss", "--host", str(host_json),
              "--message", "0x2a", "--nc", "8", "--out", str(stego),
              "--meta", str(meta)])
        capsys.readouterr()
        assert meta.exists()
        code = main(["decode", "--scheme", "iss", "--stego", str(stego),
                     "--nc", "8", "--out", str(record)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "00101010"
        assert json.loads(record.read_text())["bits"] == "00101010"

    def test_zero_host_amplitude_bound(self, tmp_path, capsys):
        host = tmp_path / "zero.json"
        fileio.write_vector(host, np.zeros(1024))
        stego = tmp_path / "stego.json"
        rng = np.random.default_rng(0)
        message = "".join(str(b) for b in rng.integers(0, 2, 32))
        code = main(["embed", "--scheme", "ss", "--host", str(host),
                     "--message", message, "--gamma", "1.0", "--key", "42",
                     "--out", str(stego)])
        assert code == EXIT_OK
        capsys.readouterr()
        carriers = generate_carriers(SchemeConfig(nv=1024, nc=32, key=42))
        y = fileio.read_vector(stego)
        assert np.max(np.abs(y)) <= 32 * 1.0 * np.max(np.abs(carriers.matrix))

    def test_hex_message_requires_nc(self, host_json, tmp_path, capsys):
        code = main(["embed", "--scheme", "ss", "--host", str(host_json),
                     "--message", "0x2a", "--out", str(tmp_path / "s.json")])
        assert code == EXIT_USAGE

    def test_nw_round_trip_with_eta(self, tmp_path, host_json, capsys):
        stego = tmp_path / "stego.csv"
        main(["embed", "--scheme", "nw", "--host", str(host_json),
              "--message", "0110", "--eta", "0.5", "--out", str(stego)])
        capsys.readouterr()
        code = main(["decode", "--scheme", "nw", "--stego", str(stego),
                     "--nc", "4", "--eta", "0.5"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "0110"

    def test_pgm_host(self, tmp_path, capsys):
        pgm = tmp_path / "host.pgm"
        pgm.write_bytes(b"P2\n# tiny\n2 2\n255\n0 64\n128 255\n")
        stego = tmp_path / "s.json"
        code = main(["embed", "--scheme", "nw", "--host", str(pgm),
                     "--message", "10", "--out", str(stego)])
        assert code == EXIT_OK
        capsys.readouterr()
        code = main(["decode", "--scheme", "nw", "--stego", str(stego),
                     "--nc", "2"])
        assert capsys.readouterr().out.strip() == "10"
        assert code == EXIT_OK

    def test_zero_stego_decode_warns_on_ties(self, tmp_path, capsys):
        stego = tmp_path / "z.json"
        fileio.write_vector(stego, np.zeros(4))
        code = main(["decode", "--scheme", "ss", "--stego", str(stego),
                     "--nc", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr()
        assert out.out.strip() == "00"
        assert "zero projection" in out.err


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["decode", "--scheme", "ss",
                     "--stego", str(tmp_path / "nope.json"),
                     "--nc", "4"]) == EXIT_IO

    def test_malformed_message_is_io_error(self, tmp_path, host_json):
        assert main(["embed", "--scheme", "ss", "--host", str(host_json),
                     "--message", "01a1",
                     "--out", str(tmp_path / "s.json")]) == EXIT_IO

    def test_bad_parameters_are_usage_errors(self, tmp_path, host_json):
        assert main(["embed", "--scheme", "ss", "--host", str(host_json),
                     "--message", "1011", "--gamma", "-1.0",
                     "--out", str(tmp_path / "s.json")]) == EXIT_USAGE
        assert main(["embed", "--scheme", "ss", "--host", str(host_json),
                     "--out", str(tmp_path / "s.json")]) == EXIT_USAGE

    def test_unknown_scheme_is_usage_error(self, capsys, host_json, tmp_path):
        code = main(["embed", "--scheme", "css", "--host", str(host_json),
                     "--message", "1011", "--out", str(tmp_path / "s.json")])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_host_nv_mismatch(self, tmp_path, host_json):
        assert main(["embed", "--scheme", "ss", "--host", str(host_json),
                     "--nv", "16", "--message", "1011",
                     "--out", str(tmp_path / "s.json")]) == EXIT_USAGE

    def test_bad_env_seed_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("CHAOSMARK_SEED", "not-a-number")
        assert main(["analyze", "sensitivity", "--r", "0.1"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["sensitivity", "--r", "0.1"],
        ["transitivity", "--r-a", "0.1"],
        ["regularity", "--eps", "0.01"],
        ["expansivity", "--eps", "0.5"],
        ["continuity"],
        ["scan", "--r", "0.1", "--trials", "2"],
        ["trace"],
    ])
    def test_negative_seed_is_usage_error(self, argv, capsys):
        assert main(["analyze", *argv, "--seed", "-1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: --seed must be a non-negative integer, got -1\n"

    def test_transitivity_over_budget_is_usage_error(self, capsys):
        # every one of the 10001 media components needs a correction term
        assert main(["analyze", "transitivity", "--nv", "10001",
                     "--r-a", "0.01"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: the transitivity splice needs ")
        assert err.endswith("more than MAX_CORRECTION_TERMS=10000\n")

    @pytest.mark.parametrize("argv,work", [
        (["scan", "--r", "0.01", "--trials", "500", "--n-max", "250"], 1004000),
        (["scan", "--r", "0.01", "--nv", "2000000", "--trials", "1",
          "--n-max", "0"], 2000000),
        (["trace", "--n-max", "125000"], 1000008),
        (["trace", "--pair", "expansivity", "--nv", "2000000",
          "--n-max", "0"], 2000000),
        (["expansivity", "--eps", "0.5", "--n-max", "125000"], 1000008),
        (["expansivity", "--eps", "0.5", "--nv", "2000000"], 202000000),
    ], ids=["scan", "scan-nv", "trace", "trace-nv", "expansivity",
            "expansivity-nv"])
    def test_orbit_budget_is_usage_error(self, argv, work, capsys,
                                         monkeypatch):
        def undrawn(*args):
            raise AssertionError("a start point was drawn")

        monkeypatch.setattr(cli, "random_phase_point", undrawn)
        monkeypatch.setattr(chaos_analysis, "expansivity_pair", undrawn)
        assert main(["analyze", *argv]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: an orbit walk of ")
        assert err.endswith(f"needs {work} step-components, "
                            "more than MAX_ORBIT_WORK=1000000\n")

    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch):
        def refused(*args):
            raise MemoryError("Unable to allocate 7.45 GiB for an array with "
                              "shape (1000000000,) and data type float64")

        monkeypatch.setattr(cli, "random_phase_point", refused)
        assert main(["analyze", "sensitivity", "--r", "0.1",
                     "--nv", "1000000000"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 7.45 GiB ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("r", ["1e-307", "1e-320"])
    def test_scan_draws_past_the_largest_power_of_ten(self, r, capsys):
        # random draws reach depth k0 + 2, past 10^308
        assert main(["analyze", "scan", "--r", r, "--trials", "5"]) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["command"] == "analyze scan"
        assert "Traceback" not in captured.err

    def test_default_walks_sit_well_inside_the_orbit_budget(self):
        parser = cli.build_parser()
        scan = parser.parse_args(["analyze", "scan", "--r", "0.01"])
        assert scan.trials * (scan.n_max + 1) * scan.nv * 10 <= \
            chaos_analysis.MAX_ORBIT_WORK
        for argv in (["trace"], ["expansivity", "--eps", "0.5"]):
            args = parser.parse_args(["analyze", *argv])
            assert (args.n_max + 1) * args.nv * 10 <= \
                chaos_analysis.MAX_ORBIT_WORK

    def test_negative_env_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("CHAOSMARK_SEED", "-3")
        assert main(["analyze", "expansivity", "--eps", "0.5"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("error: CHAOSMARK_SEED must be a non-negative integer, "
                       "got -3\n")

    @pytest.mark.parametrize("argv", [
        ["scan", "--r", "0.1", "--trials", "2"],
        ["trace"],
    ])
    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_bad_tolerance_is_usage_error(self, argv, tolerance, capsys):
        assert main(["analyze", *argv, "--tolerance", tolerance]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: tolerance must be non-negative")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sensitivity", "--r", "0.1"],
        ["regularity", "--eps", "0.01"],
        ["scan", "--r", "0.1", "--trials", "2"],
        ["trace"],
    ])
    def test_bound_with_infinite_double_is_usage_error(self, argv, capsys):
        assert main(["analyze", *argv, "--bound-n", "1e308"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: bound_n")
        assert "Traceback" not in err

    def test_removed_series_truncation_flag_is_unknown(self, capsys):
        assert main(["analyze", "sensitivity", "--r", "0.1",
                     "--series-truncation", "64"]) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix,text", [
        (".csv", "1.0\nnan\n"),
        (".csv", "inf\n"),
        (".json", '{"nv": 2, "data": [1.0, NaN]}'),
        pytest.param(".json", '{"nv": 2, "data": [1.0, {}]}', id="json-object"),
        pytest.param(".json", '{"nv": 1, "data": [1%s]}' % ("0" * 400),
                     id="json-int-overflow"),
        pytest.param(".json", '{"nv": 2, "data": [1.0, "1"]}', id="json-string"),
        pytest.param(".json", '{"nv": 1, "data": [true]}', id="json-bool-entry"),
        pytest.param(".json", '{"nv": true, "data": [1.0]}', id="json-bool-nv"),
        pytest.param(".json", "[" * 100000, id="json-deep-nesting"),
        pytest.param(".pgm", "P2\n1 2\n255\nx 1\n", id="pgm-non-integer"),
    ])
    def test_non_finite_host_is_io_error(self, tmp_path, capsys, suffix, text):
        host = tmp_path / f"host{suffix}"
        host.write_text(text)
        assert main(["embed", "--scheme", "ss", "--host", str(host),
                     "--message", "1", "--out", str(tmp_path / "s.json")]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(host) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", [
        "host.json", "host.csv", "message.txt", "tape.txt", "machine.tm"])
    def test_non_utf8_file_is_io_error(self, tmp_path, capsys, host_json,
                                       target):
        bad = tmp_path / target
        bad.write_bytes(b"1\xff\n")
        machine = tmp_path / "inc.tm"
        machine.write_text(MACHINE_TEXT)
        out = str(tmp_path / "s.json")
        argv = {
            "host.json": ["embed", "--scheme", "ss", "--host", str(bad),
                          "--message", "1", "--out", out],
            "host.csv": ["embed", "--scheme", "ss", "--host", str(bad),
                         "--message", "1", "--out", out],
            "message.txt": ["embed", "--scheme", "ss", "--host", str(host_json),
                            "--message-file", str(bad), "--out", out],
            "tape.txt": ["tm", "--machine", str(machine), "--tape-file", str(bad)],
            "machine.tm": ["tm", "--machine", str(bad)],
        }[target]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err

    # warnings raise, so a numpy overflow warning fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["scan", "--bound-n", "8e307", "--r", "0.1"],
        ["trace", "--pair", "random", "--bound-n", "8e307"],
    ], ids=["scan", "trace"])
    def test_media_overflow_prints_one_error_line(self, argv, capsys):
        assert main(["analyze", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vector components must be finite\n"

    def test_non_finite_report_is_usage_error(self, tmp_path, capsys):
        # finite media an infinite distance apart give inf rows, which
        # JSON cannot hold
        argv = ["analyze", "trace", "--pair", "random", "--n-max", "3",
                "--bound-n", "8e307", "--nv", "2", "--seed", "2"]
        out = tmp_path / "t.json"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert lines[0].startswith(
            "error: Out of range float values are not JSON compliant")
        # the CSV trace still writes the rows
        assert main([*argv, "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "3,inf,inf"

    def test_continuity_without_usable_scales_is_usage_error(self, capsys):
        assert main(["analyze", "continuity", "--scales", "30,20",
                     "--bound-n", "1"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: no usable scales: every perturbation left the bound\n")

    def test_false_verdict_maps_to_one(self, tmp_path):
        # at tolerance 0 the exact hit's rounding residue fails the verdict
        out = tmp_path / "r.json"
        assert main(["analyze", "transitivity", "--r-a", "0.01", "--seed", "0",
                     "--tolerance", "0", "--out", str(out)]) == EXIT_FALSE
        report = json.loads(out.read_text())["report"]
        assert report["verdict"] is False
        assert 0.0 < report["measured"]["final_distance"] < 1e-12

    @pytest.mark.parametrize("message", ["0101", "0x1"])
    @pytest.mark.parametrize("nc", ["0", "-3"])
    def test_non_positive_nc_is_usage_error(self, tmp_path, capsys, host_json,
                                            message, nc):
        argv = ["--scheme", "ss", "--nc", nc]
        assert main(["embed", *argv, "--host", str(host_json),
                     "--message", message,
                     "--out", str(tmp_path / "s.json")]) == EXIT_USAGE
        embed_err = capsys.readouterr().err
        assert embed_err == f"error: nc must be a positive integer, got {nc}\n"
        assert main(["decode", *argv, "--stego", str(host_json)]) == EXIT_USAGE
        assert capsys.readouterr().err == embed_err

    @pytest.mark.parametrize("pair", ["sensitivity", "expansivity", "random"])
    @pytest.mark.parametrize("option, value, rule", [
        ("--r", "-5", "radius"), ("--r", "0", "radius"),
        ("--r", "nan", "radius"), ("--r", "inf", "radius"),
        ("--eps", "-5", "eps"), ("--eps", "0", "eps"),
        ("--eps", "nan", "eps"), ("--eps", "inf", "eps"),
    ])
    def test_trace_checks_radius_and_eps_on_every_pair(
            self, tmp_path, capsys, pair, option, value, rule):
        # the report records both values, so a pair that ignores one
        # must still refuse it rather than write it
        out = tmp_path / "t.json"
        assert main(["analyze", "trace", "--pair", pair, option, value,
                     "--n-max", "3", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {rule} must be positive and finite, "
                                f"got {float(value)!r}\n")


class TestAnalyze:
    def test_sensitivity_report_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code = main(["analyze", "sensitivity", "--r", "0.1",
                         "--seed", "5", "--out", str(out)])
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["command"] == "analyze sensitivity"
        assert payload["report"]["verdict"] is True
        assert payload["config"]["seed"] == 5

    def test_csv_report_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["analyze", "regularity", "--eps", "1e-3",
                         "--seed", "2", "--format", "csv",
                         "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert "report.verdict,true" in a.read_text()

    def test_env_seed_matches_explicit_seed(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["analyze", "sensitivity", "--r", "0.1", "--seed", "123",
              "--out", str(a)])
        monkeypatch.setenv("CHAOSMARK_SEED", "123")
        main(["analyze", "sensitivity", "--r", "0.1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_expansivity_trace_draws_no_point(self, capsys, monkeypatch):
        def undrawn(*args):
            raise AssertionError("a start point was drawn")

        monkeypatch.setattr(cli, "random_phase_point", undrawn)
        assert main(["analyze", "trace", "--pair", "expansivity",
                     "--n-max", "3"]) == EXIT_OK
        trace = json.loads(capsys.readouterr().out)["trace"]
        assert len(trace["points"]) == 4

    def test_transitivity_and_continuity(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["analyze", "transitivity", "--r-a", "0.1",
                     "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["report"]["verdict"] is True

        out = tmp_path / "c.json"
        assert main(["analyze", "continuity", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["report"]["verdict"] is True
        assert payload["trace"]["columns"] == ["step", "d_phase", "d_inf_media"]

    def test_expansivity_small_bound_notes_discrepancy(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        code = main(["analyze", "expansivity", "--eps", "0.5",
                     "--bound-n", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert "derived bound still holds" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["report"]["measured"]["eps_bound_holds"] == 0.0

    def test_scan_includes_witness_floor(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["analyze", "scan", "--r", "0.1", "--trials", "2",
                     "--n-max", "5", "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["result"]["max_separation"] >= 5.0

    def test_trace_csv_format(self, capsys):
        code = main(["analyze", "trace", "--pair", "expansivity",
                     "--eps", "0.5", "--n-max", "4", "--seed", "0",
                     "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# chaosmark/3"
        assert "step,d_phase,d_inf_media" in lines
        assert len([ln for ln in lines if not ln.startswith("#")]) == 6


class TestTm:
    def test_run_summary_and_json(self, tmp_path, capsys):
        machine = tmp_path / "inc.tm"
        machine.write_text(MACHINE_TEXT)
        code = main(["tm", "--machine", str(machine), "--tape", "11"])
        assert code == EXIT_OK
        assert "halted after 3 steps (halt_state)" in capsys.readouterr().out

        out = tmp_path / "run.json"
        assert main(["tm", "--machine", str(machine), "--tape", "11",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["result"]["tape"] == "111#"
        assert payload["result"]["steps"] == 3
        assert payload["result"]["halted"] is True

    def test_tape_file_and_conflict(self, tmp_path, capsys):
        machine = tmp_path / "inc.tm"
        machine.write_text(MACHINE_TEXT)
        tape = tmp_path / "tape.txt"
        tape.write_text("111\n")
        code = main(["tm", "--machine", str(machine),
                     "--tape-file", str(tape)])
        assert code == EXIT_OK
        assert "after 4 steps" in capsys.readouterr().out
        assert main(["tm", "--machine", str(machine), "--tape", "1",
                     "--tape-file", str(tape)]) == EXIT_USAGE

    def test_malformed_machine_is_io_error(self, tmp_path):
        machine = tmp_path / "bad.tm"
        machine.write_text("states: a\nwhat\n")
        assert main(["tm", "--machine", str(machine)]) == EXIT_IO

    def test_csv_report_on_stdout_is_pure_csv(self, tmp_path, capsys):
        machine = tmp_path / "inc.tm"
        machine.write_text(MACHINE_TEXT)
        assert main(["tm", "--machine", str(machine), "--tape", "11",
                     "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        assert ["result.steps", "3"] in rows

    @pytest.mark.parametrize("extra", [
        ["--tape", "1" * 21],                 # input tape over the budget
        ["--tape", "1" * 19, "--max-steps", "100"],  # the run grows it past
    ])
    def test_tape_budget_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                        extra):
        monkeypatch.setattr(tm_encoding, "MAX_TAPE_CELLS", 20)
        machine = tmp_path / "writer.tm"
        machine.write_text("states: go\nalphabet: 1 #\ninitial: go\n"
                           "go 1 -> go 1 R\ngo # -> go 1 R\n")
        assert main(["tm", "--machine", str(machine), *extra]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "MAX_TAPE_CELLS=20" in err
        assert "Traceback" not in err

    def test_step_budget_is_usage_error(self, tmp_path, capsys):
        machine = tmp_path / "inc.tm"
        machine.write_text(MACHINE_TEXT)
        assert main(["tm", "--machine", str(machine), "--tape", "11",
                     "--max-steps", str(10**7 + 1)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "max_steps 10000001 exceeds MAX_TM_STEPS=10000000" in err
        assert "Traceback" not in err

    def test_head_far_from_the_tape_is_usage_error(self, tmp_path, capsys):
        machine = tmp_path / "inc.tm"
        machine.write_text(MACHINE_TEXT)
        assert main(["tm", "--machine", str(machine), "--tape", "11",
                     "--head", "99999999999999999999"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: tape and head span more than")
        assert "Traceback" not in err


# One call of each command family and analysis, a usage error, help at two
# widths, and seeds taken from CHAOSMARK_SEED as it changes.  A (name,
# value) entry sets that environment variable, or unsets it for None.
REUSE_SEQUENCE = (
    ("CHAOSMARK_SEED", None),
    ("COLUMNS", "80"),
    ["embed", "--scheme", "iss", "--host", "host.json", "--key", "3",
     "--message", "1011", "--out", "stego.json"],
    ["decode", "--scheme", "iss", "--stego", "stego.json", "--key", "3",
     "--nc", "4", "--out", "decoded.json"],
    ["analyze", "sensitivity"],
    ("CHAOSMARK_SEED", "3"),
    ["analyze", "sensitivity", "--r", "0.1"],
    ["analyze", "transitivity", "--r-a", "0.1", "--out", "t.json"],
    ("CHAOSMARK_SEED", "7"),
    ["analyze", "regularity", "--eps", "1e-3", "--format", "csv"],
    ["analyze", "expansivity", "--eps", "0.5", "--bound-n", "1"],
    ["analyze", "continuity", "--nv", "3"],
    ("CHAOSMARK_SEED", None),
    ["analyze", "scan", "--r", "0.1", "--trials", "3", "--n-max", "4"],
    ["analyze", "trace", "--pair", "random", "--n-max", "3",
     "--format", "csv"],
    ("COLUMNS", "60"),
    ["--help"],
    ("COLUMNS", "120"),
    ["analyze", "trace", "--help"],
    ["--help"],
    ["tm", "--machine", "inc.tm", "--tape", "111", "--out", "tm.json"],
    ["tm", "--machine", "inc.tm", "--tape", "11", "--format", "csv"],
)


class TestParserReuse:
    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch, capsys):
        built = collections.Counter()
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built[kwargs.get("prog", "")] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        cli.build_parser()
        one_build = +built
        assert sum(one_build.values()) == 12
        built.clear()
        cli.build_parser.cache_clear()
        machine = tmp_path / "inc.tm"
        machine.write_text(MACHINE_TEXT)
        assert main(["tm", "--machine", str(machine), "--tape", "1"]) == EXIT_OK
        assert main(["analyze", "expansivity", "--eps", "0.5",
                     "--n-max", "2"]) == EXIT_OK
        assert main(["analyze", "sensitivity"]) == EXIT_USAGE
        capsys.readouterr()
        assert built == one_build

    def run_sequence(self, workdir, monkeypatch, capsys, fresh):
        """Run REUSE_SEQUENCE in workdir; return every output and file."""
        monkeypatch.chdir(workdir)
        fileio.write_vector("host.json",
                            np.random.default_rng(4).standard_normal(16))
        (workdir / "inc.tm").write_text(MACHINE_TEXT)
        cli.build_parser.cache_clear()
        outputs = []
        for step in REUSE_SEQUENCE:
            if isinstance(step, tuple):
                name, value = step
                if value is None:
                    monkeypatch.delenv(name, raising=False)
                else:
                    monkeypatch.setenv(name, value)
                continue
            if fresh:
                cli.build_parser.cache_clear()
            code = main(list(step))
            outputs.append((code, *capsys.readouterr()))
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        info = cli.build_parser.cache_info()
        return outputs, files, (info.hits, info.misses)

    def test_one_parser_answers_like_a_fresh_one_per_call(
            self, tmp_path, monkeypatch, capsys):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        shared.mkdir()
        fresh.mkdir()
        calls = sum(isinstance(step, list) for step in REUSE_SEQUENCE)
        got = self.run_sequence(shared, monkeypatch, capsys, fresh=False)
        want = self.run_sequence(fresh, monkeypatch, capsys, fresh=True)
        assert (got[2], want[2]) == ((calls - 1, 1), (0, 1))
        assert got[:2] == want[:2]
        codes = [code for code, _, _ in got[0]]
        assert codes == [0, 0, 2] + [0] * (calls - 3)
        usage_error = got[0][2][2]
        assert usage_error.startswith("usage: chaosmark analyze sensitivity")
        assert "the following arguments are required: --r" in usage_error
        outs = [out for _, out, _ in got[0]]
        assert '"seed": 3,' in outs[3] and "config.seed,7" in outs[5]
        assert '"seed": 7,' in outs[7] and '"seed": 0,' in outs[8]
        narrow, wide = outs[10], outs[12]
        assert narrow.startswith("usage: chaosmark [-h]")
        assert max(map(len, narrow.splitlines())) <= 60 < max(
            map(len, wide.splitlines()))
        assert {"stego.json", "stego.json.meta.json", "decoded.json",
                "t.json", "tm.json"} <= set(got[1])


class TestFileio:
    def test_vector_json_round_trip(self, tmp_path):
        path = tmp_path / "v.json"
        vec = np.array([1.5, -2.25, 1e-17])
        fileio.write_vector(path, vec)
        assert np.array_equal(fileio.read_vector(path), vec)

    def test_vector_csv_round_trip(self, tmp_path):
        path = tmp_path / "v.csv"
        vec = np.array([0.1, -0.2, 3.0])
        fileio.write_vector(path, vec)
        assert np.array_equal(fileio.read_vector(path), vec)

    def test_unsupported_extensions(self, tmp_path):
        with pytest.raises(fileio.FormatError):
            fileio.write_vector(tmp_path / "v.txt", [1.0])
        (tmp_path / "v.bin").write_bytes(b"xx")
        with pytest.raises(fileio.FormatError):
            fileio.read_vector(tmp_path / "v.bin")

    def test_vector_json_validation(self, tmp_path):
        path = tmp_path / "v.json"
        for text in ['[1, 2]', '{"nv": 3, "data": [1.0]}', "{bad",
                     '{"nv": 1, "data": ["x"]}']:
            path.write_text(text)
            with pytest.raises(fileio.FormatError):
                fileio.read_vector(path)

    def test_vector_csv_validation(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0\nzzz\n")
        with pytest.raises(fileio.FormatError):
            fileio.read_vector(path)
        path.write_text("\n\n")
        with pytest.raises(fileio.FormatError):
            fileio.read_vector(path)

    def test_pgm_ascii_and_binary_agree(self, tmp_path):
        ascii_path = tmp_path / "a.pgm"
        ascii_path.write_bytes(b"P2\n# comment\n3 1\n255\n0 128 255\n")
        binary_path = tmp_path / "b.pgm"
        binary_path.write_bytes(b"P5\n3 1\n255\n" + bytes([0, 128, 255]))
        a = fileio.read_vector(ascii_path)
        b = fileio.read_vector(binary_path)
        assert np.array_equal(a, b)
        assert a.tolist() == [0.0, 128.0, 255.0]

    def test_pgm_two_byte_samples(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n" + (500).to_bytes(2, "big")
                         + (65535).to_bytes(2, "big"))
        assert fileio.read_vector(path).tolist() == [500.0, 65535.0]

    def test_pgm_errors(self, tmp_path):
        path = tmp_path / "bad.pgm"
        for blob in [b"P6\n1 1\n255\n\x00", b"P5\n2 1\n255\n\x00",
                     b"P2\n1 1\n255\n", b"P2\nx 1\n255\n0\n"]:
            path.write_bytes(blob)
            with pytest.raises(fileio.FormatError):
                fileio.read_vector(path)

    def test_pgm_reader_matches_the_byte_loop_oracle(self, tmp_path):
        def outcome(read, path):
            try:
                arr = read(path)
            except fileio.FormatError as exc:
                return "error", str(exc)
            return "array", arr.dtype.str, arr.shape, arr.tobytes()

        rng = np.random.default_rng(2010)
        path = tmp_path / "blob.pgm"
        kinds = collections.Counter()
        for _ in range(3000):
            path.write_bytes(pgm_blob(rng))
            got = outcome(fileio.read_vector, path)
            assert got == outcome(read_vector_pgm, path), path.read_bytes()
            kinds[got[0] if got[0] == "array"
                  else got[1].split(": ")[1].split(" (")[0]] += 1
        # arrays and each of the reader's eight error messages
        assert kinds["array"] >= 200 and len(kinds) == 9, kinds

    def test_message_parsing(self):
        assert fileio.parse_message_text("0b1011", 4).tolist() == [1, 0, 1, 1]
        assert fileio.parse_message_text("0x2a", 8).tolist() == [0, 0, 1, 0, 1, 0, 1, 0]
        assert fileio.parse_message_text("0x0", 3).tolist() == [0, 0, 0]
        for bad, nc in [("0x100", 8), ("012", 3), ("", 4), ("101", 4),
                        ("0xzz", 4)]:
            with pytest.raises(fileio.FormatError):
                fileio.parse_message_text(bad, nc)

    @staticmethod
    def _list_layout(text, nc):
        """The per-bit Python list layout the array layout replaced."""
        if text.lower().startswith("0x"):
            value = int(text, 16)
            bits = [(value >> (nc - 1 - i)) & 1 for i in range(nc)]
        else:
            bits = [int(ch) for ch in text.removeprefix("0b")]
        return np.array(bits, dtype=np.uint8)

    def test_message_bits_match_the_list_layout(self):
        rng = np.random.default_rng(16)
        cases = []
        for nc in range(1, 71):
            # both edges of the width: the lowest and the highest bit
            for value in {0, 1, 1 << (nc - 1), (1 << nc) - 1}:
                cases.append((hex(value), nc))
                cases.append(("0b" + format(value, f"0{nc}b"), nc))
        for nc in [*rng.integers(71, 10**4, 20).tolist(), 10**4]:
            value = int("".join(map(str, rng.integers(0, 2, nc))), 2)
            cases.append((hex(value | 1 << (nc - 1)), nc))
            cases.append((format(value, f"0{nc}b"), nc))
        for text, nc in cases:
            got = fileio.parse_message_text(text, nc)
            want = self._list_layout(text, nc)
            assert got.dtype == want.dtype and got.shape == want.shape == (nc,)
            assert got.tobytes() == want.tobytes(), (text, nc)

    def test_message_width_defaults_to_the_bit_string(self):
        assert fileio.parse_message_text(" 0b1011\n", None).tolist() == [1, 0, 1, 1]
        assert fileio.parse_message_text("011", None).tolist() == [0, 1, 1]
        for bad in ["", "0b", "012", "0B"]:
            with pytest.raises(fileio.FormatError):
                fileio.parse_message_text(bad, None)
        # usage errors, not format errors: the width is missing or bad
        for text, nc, message in [
                ("0x2a", None, "--nc is required when the message is hex"),
                ("0xzz", None, "--nc is required when the message is hex"),
                ("", 0, "nc must be a positive integer, got 0"),
                ("0x1", -3, "nc must be a positive integer, got -3")]:
            with pytest.raises(ValueError) as info:
                fileio.parse_message_text(text, nc)
            assert type(info.value) is ValueError
            assert str(info.value) == message

    def test_bits_to_string(self):
        assert fileio.bits_to_string(np.array([1, 0, 1], dtype=np.uint8)) == "101"

    def test_key_fingerprint(self):
        fp = fileio.key_fingerprint(9)
        assert len(fp) == 16
        assert fp == fileio.key_fingerprint(9)
        assert fp != fileio.key_fingerprint(10)
        assert set(fp) <= set("0123456789abcdef")

    def test_kv_csv_is_sorted_and_typed(self):
        text = fileio.render_kv_csv({"b": {"x": True}, "a": 1.5,
                                     "c": [1, 2], "d": "hey, there"})
        lines = text.splitlines()
        assert lines[0] == "key,value"
        keys = [line.split(",", 1)[0] for line in lines[1:]]
        assert keys == sorted(keys)
        assert "b.x,true" in lines
        assert '"hey, there"' in text

    def test_render_json_is_stable(self):
        a = fileio.render_json({"z": 1, "a": [1.0, 2.0]})
        b = fileio.render_json({"a": [1.0, 2.0], "z": 1})
        assert a == b
        assert a.endswith("\n")
