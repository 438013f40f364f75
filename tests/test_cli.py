"""CLI and report tests: config validation, dispatch, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from ipsim import cli, harness
from ipsim.cli import ExperimentConfig, emit_report, main, parse_config_file, run_experiment


class TestConfigParsing:
    def test_flat_key_value_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# purity experiment\nd = 4\ndelta = 0.25\nadversary = always-pure\n")
        cfg = parse_config_file(str(path))
        assert cfg == {"d": 4, "delta": 0.25, "adversary": "always-pure"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("d 4\n")
        with pytest.raises(cli.ConfigError):
            parse_config_file(str(path))

    def test_unknown_key_rejected(self):
        cfg = ExperimentConfig(protocol="purity", trials=1, protocol_keys={"zzz": 1})
        with pytest.raises(cli.ConfigError):
            run_experiment(cfg)

    def test_bad_range_rejected_as_config_error(self):
        assert main(["purity", "--trials", "1", "delta=1.5"]) == 2

    def test_unknown_protocol(self):
        cfg = ExperimentConfig(protocol="nope")
        with pytest.raises(cli.ConfigError):
            run_experiment(cfg)


class TestRunExperiment:
    def test_report_rows_and_rates_consistent(self):
        cfg = ExperimentConfig(protocol="purity", trials=6, seed=5, protocol_keys={"d": 4})
        report, results = run_experiment(cfg)
        assert len(report.rows) == 6
        accepted = sum(1 for r in report.rows if r["verdict"] == "accepted")
        counted = (
            report.rates["accept_and_valid"]["count"]
            + report.rates["accept_and_invalid"]["count"]
        )
        assert counted == accepted
        assert report.rates["abort"]["count"] == 6 - accepted

    def test_formula_comparison_block_populated(self):
        cfg = ExperimentConfig(protocol="purity", trials=2, seed=1, protocol_keys={"d": 4})
        report, _ = run_experiment(cfg)
        fc = report.formula_comparison
        assert fc["expected"]["N"] == fc["observed"]["N"]
        assert fc["expected"]["m"] == fc["observed"]["m"]

    def test_uniformity_formula_names_the_deciding_threshold(self):
        small = {"k": 256, "epsilon": 0.9, "allow_small_epsilon": True}
        report, _ = run_experiment(ExperimentConfig(protocol="uniformity", trials=2, seed=1, protocol_keys=small))
        fc = report.formula_comparison
        assert fc["expected"]["tau"] <= 0
        assert fc["expected"]["collision_threshold"] == fc["observed"]["collision_threshold"]
        assert fc["expected"]["collision_threshold"] == pytest.approx(39_136.2, abs=0.1)
        positive_tau = {"k": 1 << 14, "epsilon": 1.0, "allow_small_epsilon": True}
        report, _ = run_experiment(
            ExperimentConfig(protocol="uniformity", trials=1, seed=1, protocol_keys=positive_tau)
        )
        fc = report.formula_comparison
        assert fc["expected"]["tau"] > 0
        assert set(fc["expected"]) == {"n", "tau", "threshold_count", "b"}

    def test_deterministic_report_bytes(self):
        cfg = ExperimentConfig(protocol="tomo", trials=4, seed=9, protocol_keys={"d": 4})
        r1, _ = run_experiment(cfg)
        r2, _ = run_experiment(cfg)
        assert r1.to_json() == r2.to_json()


class TestEmit:
    def test_files_and_row_count(self, tmp_path):
        cfg = ExperimentConfig(protocol="purity", trials=3, seed=2, protocol_keys={"d": 4})
        report, results = run_experiment(cfg)
        written = emit_report(report, results, str(tmp_path))
        csv = Path(written[1]).read_text().strip().splitlines()
        assert len(csv) == 4  # header + 3 rows
        body = json.loads(Path(written[0]).read_text())
        assert "wall_time_s" not in body  # deterministic file excludes timing

    def test_transcripts_emitted_when_enabled(self, tmp_path):
        cfg = ExperimentConfig(
            protocol="purity", trials=2, seed=2, transcripts=True, protocol_keys={"d": 4}
        )
        report, results = run_experiment(cfg)
        written = emit_report(report, results, str(tmp_path), transcripts=True)
        transcript_files = [w for w in written if Path(w).parent.name == "transcripts"]
        assert len(transcript_files) == 2
        # report digests match the files on disk
        import hashlib

        for entry, path_ in zip(report.transcript_digests, transcript_files):
            on_disk = Path(path_).read_text().rstrip("\n")
            assert entry["sha256"] == hashlib.sha256(on_disk.encode()).hexdigest()
        first = Path(transcript_files[0]).read_text().splitlines()
        record = json.loads(first[0])
        assert set(record) == {"round", "direction", "payload_kind", "size_bits_or_qudits", "digest"}

    def test_aggregate_rate_equals_row_mean(self, tmp_path):
        cfg = ExperimentConfig(protocol="purity", trials=5, seed=3, protocol_keys={"d": 4})
        report, _ = run_experiment(cfg)
        accepted_valid = sum(1 for r in report.rows if r["valid"] is True)
        assert report.rates["accept_and_valid"]["rate"] == accepted_valid / 5


class TestExitCodes:
    def test_memory_policy_violation_exits_3(self, monkeypatch):
        from ipsim.harness import MemoryPolicyError

        def boom(self, t):
            raise MemoryPolicyError("injected test double")

        monkeypatch.setattr(cli.PurityAdapter, "run_trial", boom)
        assert main(["purity", "--trials", "1", "d=4"]) == 3

    def test_channel_type_violation_exits_3(self, monkeypatch):
        from ipsim.harness import ChannelTypeError

        def boom(self, t):
            raise ChannelTypeError("injected test double")

        monkeypatch.setattr(cli.PurityAdapter, "run_trial", boom)
        assert main(["purity", "--trials", "1", "d=4"]) == 3


class TestFormulaCheck:
    @staticmethod
    def _corrupt_trial(monkeypatch, bad_trial, key, delta):
        real = cli.PurityAdapter.run_trial

        def run_trial(self, t):
            res, valid = real(self, t)
            if t == bad_trial:
                res.extras[key] += delta
            return res, valid

        monkeypatch.setattr(cli.PurityAdapter, "run_trial", run_trial)

    @pytest.mark.parametrize("key, delta", [("m", 2), ("delta_tilde", 1e-9)])
    def test_mismatch_on_a_later_trial_raises(self, monkeypatch, key, delta):
        self._corrupt_trial(monkeypatch, 2, key, delta)
        cfg = ExperimentConfig(protocol="purity", trials=3, seed=1, protocol_keys={"d": 4})
        with pytest.raises(cli.FormulaMismatchError, match=f"{key} in trial 2"):
            run_experiment(cfg)

    def test_mismatch_exits_3_and_is_not_a_memory_error(self, monkeypatch, capsys):
        self._corrupt_trial(monkeypatch, 1, "N", 1)
        assert not issubclass(cli.FormulaMismatchError, harness.MemoryPolicyError)
        assert main(["purity", "--trials", "2", "d=4"]) == 3
        assert "formula mismatch for N in trial 1" in capsys.readouterr().err

    def test_observed_block_is_the_first_trials(self):
        cfg = ExperimentConfig(protocol="tomo", trials=3, seed=2, protocol_keys={"d": 2})
        report, results = run_experiment(cfg)
        observed = report.formula_comparison["observed"]
        assert observed == {k: results[0].extras[k] for k in report.formula_comparison["expected"]}


class TestMainEntrypoint:
    def test_exit_zero_and_outputs(self, tmp_path, capsys):
        code = main(
            ["purity", "--trials", "2", "--seed", "4", "--out", str(tmp_path), "d=4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rates" in out
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "trials.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["purity", "--trials", "2", "--seed", "4", "--out", str(a), "d=4"])
        main(["purity", "--trials", "2", "--seed", "4", "--out", str(b), "d=4"])
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()

    def test_all_protocols_dispatch(self):
        assert main(["tomo", "--trials", "1", "--seed", "1"]) == 0
        assert main(["lowrank", "--trials", "1", "--seed", "1"]) == 0
        assert main(["stab", "--trials", "1", "--seed", "1", "n=2"]) == 0
        assert main(["nogo", "--trials", "1", "--seed", "1", "d=4"]) == 0
        assert main(["trivial", "--trials", "1", "--seed", "1"]) == 0
        assert (
            main(
                [
                    "uniformity",
                    "--trials",
                    "1",
                    "--seed",
                    "1",
                    "k=256",
                    "epsilon=0.9",
                    "degree_cap=32",
                    "allow_small_epsilon=true",
                ]
            )
            == 0
        )
