"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.log_n == 24
        assert args.hbm == 1.0
        assert not args.no_recompute

    def test_prove_choices(self):
        args = build_parser().parse_args(["prove", "aes"])
        assert args.workload == "aes"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["prove", "nonsense"])

    def test_paper_workload_aliases_accepted(self):
        assert build_parser().parse_args(
            ["prove", "sha256"]).workload == "sha256"
        assert build_parser().parse_args(
            ["trace", "aes128"]).workload == "aes128"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "sha"])
        assert args.trace_out == "trace.json"
        assert args.phases_out == "BENCH_phases.json"
        assert not args.metrics

    def test_prove_new_flags(self):
        args = build_parser().parse_args(
            ["prove", "litmus", "--out", "p.bin",
             "--preset", "paper-128bit"])
        assert args.out == "p.bin"
        assert args.preset == "paper-128bit"
        assert build_parser().parse_args(["prove", "litmus"]).out is None

    def test_verify_parser(self):
        args = build_parser().parse_args(["verify", "p.bin"])
        assert args.bundle == "p.bin" and args.workload is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify"])


class TestCommands:
    def test_simulate(self, capsys):
        assert main(["simulate", "--log-n", "20"]) == 0
        out = capsys.readouterr().out
        assert "constraints" in out
        assert "sumcheck" in out

    def test_simulate_scaled(self, capsys):
        assert main(["simulate", "--log-n", "20", "--hbm", "0.5"]) == 0
        base = capsys.readouterr().out
        assert "W" in base

    def test_area(self, capsys):
        """The Table II area breakdown is a section of ``tables``."""
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Total NoCap" in out
        assert "45.8" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        titles = ["Table I:", "Table II:", "Table IV:", "Table V:", "Fig. 7:"]
        positions = [out.index(title) for title in titles]
        assert positions == sorted(positions)
        assert "586x" in out and "45.8" in out

    def test_sensitivity(self, capsys):
        """The Fig. 7 sweep is a section of ``tables``: one row per
        scaled resource."""
        assert main(["tables"]) == 0
        fig7 = capsys.readouterr().out.split("Fig. 7:")[1]
        rows = [line.split("|")[0].strip() for line in fig7.splitlines()[3:]]
        assert rows == ["arith", "hash", "ntt", "hbm", "rf"]

    @pytest.mark.parametrize("command", ["area", "sensitivity"])
    def test_table_commands_folded_into_tables(self, command):
        with pytest.raises(SystemExit) as ei:
            main([command])
        assert ei.value.code == 2

    def test_prove(self, capsys):
        assert main(["prove", "auction"]) == 0
        out = capsys.readouterr().out
        assert "valid: True" in out

    def test_simulate_json(self, capsys):
        import json

        assert main(["simulate", "--log-n", "18", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro/simulate"
        assert payload["padded_constraints"] == 1 << 18
        assert list(payload["time_fractions"]) == list(
            payload["traffic_fractions"])
        assert sum(payload["time_fractions"].values()) == pytest.approx(1.0)
        assert payload["tasks"]
        assert all(t["bound"] in ("compute", "memory")
                   for t in payload["tasks"])

    def test_simulate_family_table_stable_order(self, capsys):
        from repro.obs import FAMILIES

        assert main(["simulate", "--log-n", "18"]) == 0
        out = capsys.readouterr().out
        positions = [out.index(fam) for fam in FAMILIES]
        assert positions == sorted(positions)
        assert "traffic" in out

    def test_simulate_trace_out(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        path = tmp_path / "sim_trace.json"
        assert main(["simulate", "--log-n", "16",
                     "--trace-out", str(path)]) == 0
        obj = json.loads(path.read_text())
        assert validate_chrome_trace(obj) == []

    def test_prove_trace_flags(self):
        """``repro trace`` is the one traced prove: ``prove`` takes none
        of the tracing flags."""
        for flags in (["--trace"], ["--trace-out", "x"], ["--metrics"]):
            with pytest.raises(SystemExit) as ei:
                main(["prove", "litmus"] + flags)
            assert ei.value.code == 2

    def test_trace_metrics_prints_tree_and_counters(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(["trace", "auction", "--metrics", "--trace-out",
                     str(path), "--phases-out",
                     str(tmp_path / "phases.json")]) == 0
        out = capsys.readouterr().out
        assert out.index("phase tree") < out.index("drift")
        assert "snark.prove" in out
        assert "merkle.hashes" in out
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_prove_out_verify_roundtrip(self, tmp_path, capsys):
        from repro.cli import EXIT_VERIFICATION_ERROR

        bundle = tmp_path / "litmus.proof"
        assert main(["prove", "litmus", "--out", str(bundle)]) == 0
        assert "written to" in capsys.readouterr().out
        assert main(["verify", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "proof valid" in out and "test-fast" in out
        # The envelope names its circuit; a contradictory claim must fail.
        assert main(["verify", str(bundle), "--workload", "aes"]
                    ) == EXIT_VERIFICATION_ERROR

    def test_verify_exit_codes(self, tmp_path, capsys):
        from repro.cli import (
            EXIT_DESERIALIZATION_ERROR,
            EXIT_VERIFICATION_ERROR,
        )

        garbage = tmp_path / "garbage.proof"
        garbage.write_bytes(b"not a proof envelope")
        assert main(["verify", str(garbage)]) == EXIT_DESERIALIZATION_ERROR
        assert "DeserializationError" in capsys.readouterr().err

        bundle = tmp_path / "litmus.proof"
        assert main(["prove", "litmus", "--out", str(bundle)]) == 0
        raw = bytearray(bundle.read_bytes())
        raw[-40] ^= 1  # corrupt the proof payload, keep the framing
        tampered = tmp_path / "tampered.proof"
        tampered.write_bytes(bytes(raw))
        code = main(["verify", str(tampered)])
        assert code in (EXIT_DESERIALIZATION_ERROR, EXIT_VERIFICATION_ERROR)

        for retired in (1, 2, 3, 4, 5, 6):  # a valid envelope relabelled as an old format
            raw = bytearray(bundle.read_bytes())
            raw[4] = retired
            old = tmp_path / f"v{retired}.proof"
            old.write_bytes(bytes(raw))
            capsys.readouterr()
            assert main(["verify", str(old)]) == EXIT_DESERIALIZATION_ERROR
            assert f"version {retired}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["prove", "trace", "serve"])
    def test_workers_flag_is_gone(self, command):
        """One unit of parallelism, the proof job: no subcommand fans a
        single proof out, so none takes ``--workers``."""
        argv = [command] + ([] if command == "serve" else ["litmus"])
        assert not hasattr(build_parser().parse_args(argv), "workers")
        with pytest.raises(SystemExit) as ei:
            build_parser().parse_args(argv + ["--workers", "2"])
        assert ei.value.code == 2

    def test_trace_command(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace, validate_phases

        trace = tmp_path / "trace.json"
        phases = tmp_path / "phases.json"
        assert main(["trace", "sha256", "--trace-out", str(trace),
                     "--phases-out", str(phases)]) == 0
        out = capsys.readouterr().out
        assert "phase tree" in out and "drift" in out
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        payload = json.loads(phases.read_text())
        assert validate_phases(payload) == []
        assert payload["workload"] == "sha"  # alias resolved
        assert "functional" in payload and "simulated" in payload
