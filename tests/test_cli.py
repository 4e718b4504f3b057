import hashlib
import io
import json
import os
import sys

import pytest

from hfspeed.cli import main
from hfspeed import graph6
from hfspeed.graphs import path, relabel


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_stdin(capsys, monkeypatch, argv, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return run(capsys, argv)


class TestContractExamples:
    def test_speed_csv(self, capsys):
        code, out, _ = run(capsys, ["speed", "--family", "H(2,0)",
                                    "--n-max", "6"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,unlabeled,labeled,h_bits"
        assert lines[5].split(",")[:3] == ["4", "7", "41"]

    def test_chi_c_json(self, capsys):
        code, out, _ = run(capsys, ["chi-c", "--family", "forb(K3)"])
        assert code == 0
        assert json.loads(out)["chi_c"] == 2

    def test_critical_json(self, capsys):
        code, out, _ = run(capsys, ["critical", "--family", "forb(C5)"])
        assert code == 0
        obj = json.loads(out)
        assert obj["critical"] is False
        assert obj["witness"] == ["M", "C"]

    def test_critical_csv(self, capsys):
        code, out, _ = run(capsys, ["critical", "--family", "forb(K3)",
                                    "--format", "csv"])
        assert code == 0
        assert out.splitlines()[1] == "true,2,0,8,"


class TestClassify:
    def test_args_json(self, capsys):
        code, out, _ = run(capsys, ["classify", "--family", "forb(K3)",
                                    "Bw", "B?"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0] == {"graph": "Bw", "reduced": False,
                           "dangerous": True, "witness_s": None}
        assert rows[1]["reduced"] is True and rows[1]["witness_s"] == 1

    def test_stdin_csv(self, capsys, monkeypatch):
        code, out, _ = run_stdin(
            capsys, monkeypatch,
            ["classify", "--family", "forb(K3)", "--format", "csv"],
            "A_\nB?\n")
        assert code == 0
        assert out.splitlines() == [
            "graph,reduced,dangerous,witness_s",
            "A_,false,true,",
            "B?,true,false,1"]

    def test_explicit_level(self, capsys):
        code, out, _ = run(capsys, ["classify", "--family", "forb(K3)",
                                    "--l", "1", "B?"])
        assert code == 0
        assert json.loads(out)["l"] == 1

    def test_no_input(self, capsys, monkeypatch):
        code, _, err = run_stdin(
            capsys, monkeypatch, ["classify", "--family", "forb(K3)"], "")
        assert code == 2 and "no input graphs" in err


class TestStars:
    def test_exhaustive(self, capsys):
        code, out, _ = run(capsys, ["stars", "--s", "0", "--n-max", "5"])
        assert code == 0
        obj = json.loads(out)
        assert obj["mode"] == "exhaustive"
        assert obj["witnesses"] == ["BG", "BW"]
        assert obj["max_order"] == 3
        assert obj["scanned"][:3] == [[1, 1], [2, 2], [3, 4]]
        assert "seed" not in obj

    def test_random_records_seed(self, capsys):
        code, out, _ = run(capsys, ["stars", "--s", "0", "--n-max", "6",
                                    "--samples", "50", "--seed", "7"])
        assert code == 0
        obj = json.loads(out)
        assert obj["mode"] == "random"
        assert obj["seed"] == 7 and obj["samples"] == 50

    def test_random_order_cap(self, capsys):
        code, out, err = run(capsys, ["stars", "--s", "0", "--n-max", "65",
                                      "--samples", "1"])
        assert code == 2 and out == ""
        assert "capped at n = 64" in err

    def test_csv_groups_witnesses(self, capsys):
        code, out, _ = run(capsys, ["stars", "--s", "0", "--n-max", "4",
                                    "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,scanned,witnesses"
        assert lines[3] == "3,4,BG;BW"


class TestConstellations:
    def test_json_count(self, capsys):
        code, out, _ = run(capsys,
                           ["constellations", "--l", "2", "--s", "0"])
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == 3 and len(obj["constellations"]) == 3

    def test_csv(self, capsys):
        code, out, _ = run(capsys, ["constellations", "--l", "2", "--s",
                                    "0", "--format", "csv"])
        assert code == 0
        assert out.splitlines() == ["j,phi,alpha,beta", "?,,,11",
                                    "?,,,10", "?,,,00"]

    def test_capacity(self, capsys):
        code, _, err = run(capsys,
                           ["constellations", "--l", "4", "--s", "2"])
        assert code == 2 and "error" in err

    def test_stdout_bytes_pinned(self, capsys):
        # sha256 of stdout; pins members and order (star-system order at
        # l = 1, assembly order at l >= 2)
        want = {
            ("1", "4", "json"): "21a59120a52e147f39e8f823dfa28a19"
                                "196454f257015d1a7e54a40974ff4c13",
            ("1", "4", "csv"): "781b767ee3cbb90f5d3986011860fc1a"
                               "60d3fdc8d71d888d2e50221ffb4fc126",
            ("3", "1", "json"): "e3b9c29dff6efb3f421e8a17072e974c"
                                "f8a88cc4c66ecf016ccec2f6535e3fc1",
            ("3", "1", "csv"): "6b529365571ee4ceebca6ebcbb880d40"
                               "4f6df87f9fdb84e5ef72d63fc4d619f1",
        }
        for (l, s, fmt), digest in want.items():
            code, out, _ = run(capsys, ["constellations", "--l", l, "--s", s,
                                        "--format", fmt])
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (l, s)


class TestVerify:
    def test_kpr_csv(self, capsys):
        code, out, _ = run(capsys, ["verify", "--experiment", "kpr",
                                    "--l", "2", "--n-max", "5",
                                    "--format", "csv"])
        assert code == 0
        assert out.splitlines()[-1] == "5,388,376,94/97"

    def test_partition_json(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "--experiment", "partition", "--family", "forb(K3)",
            "--part-family", "S", "--l", "2", "--n-max", "4",
            "--eps", "1/3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["params"]["eps"] == "1/3"
        assert obj["rows"][3]["fraction"] == "1"

    def test_cover_json(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "--experiment", "cover", "--family", "forb(2K2)",
            "--l", "2", "--s", "0", "--n-max", "4"])
        assert code == 0
        obj = json.loads(out)
        assert obj["verdicts"]["selected"] == 1
        assert obj["rows"][3]["fraction"] == "58/61"

    def test_star_speed(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "--experiment", "star-speed", "--system", "@;0;1;0",
            "--l", "1", "--n-max", "8"])
        assert code == 0
        obj = json.loads(out)
        assert obj["verdicts"]["within_tolerance"] is True
        assert obj["params"]["k"] == 1

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, ["verify", "--experiment", "kpr",
                                    "--l", "2"])
        assert code == 2 and "--n-max" in err
        code, _, err = run(capsys, ["verify", "--experiment", "partition",
                                    "--l", "2", "--n-max", "4"])
        assert code == 2 and "--family" in err

    def test_bad_system_spec(self, capsys):
        for spec in ("@;0;1", "@;x;1;0"):
            code, _, err = run(capsys, [
                "verify", "--experiment", "star-speed", "--system", spec,
                "--l", "1", "--n-max", "6"])
            assert code == 2 and "error" in err


class TestGraph6Pipeline:
    def test_decode(self, capsys):
        code, out, _ = run(capsys, ["graph6", "decode", "Bw", "?"])
        assert code == 0
        assert out == "3: 0-1 0-2 1-2\n0:\n"

    def test_encode_round_trip(self, capsys, monkeypatch):
        code, out, _ = run_stdin(capsys, monkeypatch,
                                 ["graph6", "encode"],
                                 "3: 0-1 0-2 1-2\n0:\n")
        assert code == 0
        assert out == "Bw\n?\n"

    def test_canon_merges_isomorphs(self, capsys):
        # two labelings of P3
        a = graph6.encode(path(3))
        b = graph6.encode(relabel(path(3), [2, 0, 1]))
        code, out, _ = run(capsys, ["graph6", "canon", a, b])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == lines[1]

    def test_bad_edge(self, capsys):
        code, _, err = run(capsys, ["graph6", "encode", "2: 0-5"])
        assert code == 2 and "out of range" in err

    @pytest.mark.parametrize("line, word", [
        ("-1:", "outside 0..64"), ("65: 0-64", "outside 0..64"),
        ("3: 0-0", "loop")])
    def test_encode_refuses_what_decode_would(self, capsys, monkeypatch,
                                              line, word):
        code, out, err = run_stdin(capsys, monkeypatch, ["graph6", "encode"],
                                   line + "\n")
        assert code == 2 and out == "" and word in err


class TestArtifacts:
    def test_content_addressed(self, capsys, tmp_path):
        d = str(tmp_path)
        args = ["speed", "--family", "H(2,0)", "--n-max", "4", "--out", d]
        code1, out1, err1 = run(capsys, args)
        code2, out2, _ = run(capsys, args + ["--threads", "2"])
        assert code1 == code2 == 0
        files = os.listdir(d)
        assert len(files) == 1 and files[0].startswith("speed-")
        assert files[0].endswith(".csv")
        assert (tmp_path / files[0]).read_text() == out1 == out2
        assert "wrote" in err1

    def test_format_shares_stem(self, capsys, tmp_path):
        d = str(tmp_path)
        base = ["chi-c", "--family", "forb(K3)", "--out", d]
        run(capsys, base)
        run(capsys, base + ["--format", "csv"])
        stems = {f.rsplit(".", 1)[0] for f in os.listdir(d)}
        exts = sorted(f.rsplit(".", 1)[1] for f in os.listdir(d))
        assert len(stems) == 1 and exts == ["csv", "json"]

    def test_different_config_different_stem(self, capsys, tmp_path):
        d = str(tmp_path)
        run(capsys, ["speed", "--family", "S", "--n-max", "3", "--out", d])
        run(capsys, ["speed", "--family", "S", "--n-max", "4", "--out", d])
        assert len(os.listdir(d)) == 2


class TestExitCodes:
    def test_parse_errors(self, capsys):
        assert run(capsys, ["speed", "--nope"])[0] == 2
        assert run(capsys, ["nosuch"])[0] == 2
        code, _, err = run(capsys, ["speed", "--family", "forb(",
                                    "--n-max", "4"])
        assert code == 2 and "error" in err

    def test_unsupported(self, capsys):
        assert run(capsys, ["critical", "--family", "ALL"])[0] == 2

    def test_refusals_not_tracebacks(self, capsys):
        # chi_c of ALL is infinite, --eps must parse as a fraction, and
        # H(s, t) is refused past as many parts as a graph may have
        # vertices
        partition = ["verify", "--experiment", "partition", "--family",
                     "forb(K3)", "--part-family", "S", "--l", "2",
                     "--n-max", "4", "--eps"]
        for argv in (["classify", "--family", "ALL", "Bw"],
                     partition + ["abc"], partition + ["1/0"],
                     ["speed", "--family", "H(99999999999999999999,0)",
                      "--n-max", "2"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error:"), argv

    def test_budget_exhaustion(self, capsys):
        code, _, err = run(capsys, ["speed", "--family", "P(du(C, S), S)",
                                    "--n-max", "7", "--budget", "2"])
        assert code == 3 and "budget" in err

    def test_budget_and_threads_below_one(self, capsys, tmp_path):
        # every subcommand takes both options, so every one refuses them,
        # whether or not its library call reads them
        valid = [
            ["speed", "--family", "H(2,0)", "--n-max", "4"],
            ["chi-c", "--family", "forb(K3)"],
            ["classify", "--family", "forb(K3)", "Bw"],
            ["stars", "--s", "0", "--n-max", "4"],
            ["constellations", "--l", "1", "--s", "0"],
            ["critical", "--family", "forb(C5)"],
            ["verify", "--experiment", "kpr", "--l", "2", "--n-max", "4"],
            ["graph6", "decode", "Bw"],
        ]
        for base in valid:
            assert run(capsys, base)[0] == 0, base
            for bad in (["--budget", "0"], ["--budget", "-5"],
                        ["--threads", "0"], ["--threads", "-1"]):
                argv = base + bad + ["--out", str(tmp_path)]
                code, out, err = run(capsys, argv)
                assert code == 2 and out == "", argv
                assert err.startswith("error:"), argv
        assert os.listdir(tmp_path) == []

    def test_artifact_write_is_atomic(self, tmp_path):
        # a write that fails part way leaves nothing under the final name
        from hfspeed.enumeration import _write_atomic
        path = str(tmp_path / "artifact.json")

        def partial(fh):
            fh.write(b"{\n  \"half")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _write_atomic(path, partial)
        assert os.listdir(tmp_path) == []
        _write_atomic(path, lambda fh: fh.write(b"whole\n"))
        assert os.listdir(tmp_path) == ["artifact.json"]
        assert (tmp_path / "artifact.json").read_bytes() == b"whole\n"

    def test_help(self, capsys):
        assert run(capsys, ["--help"])[0] == 0
        assert run(capsys, ["verify", "--help"])[0] == 0


class TestDeterminism:
    def test_byte_identical_stdout(self, capsys):
        argv = ["verify", "--experiment", "cover", "--family", "forb(K3)",
                "--l", "2", "--s", "0", "--n-max", "4"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
