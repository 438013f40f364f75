"""CLI and report tests: config validation, dispatch, determinism, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from ipsim import cli, harness
from ipsim.cli import ExperimentConfig, emit_report, main, parse_config_file, run_experiment
from ipsim.purity_ip import PurityConfig


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

        def boom(self, *args, **kwargs):
            raise MemoryPolicyError("injected test double")

        monkeypatch.setattr(PurityConfig, "run_one", boom)
        assert main(["purity", "--trials", "1", "d=4"]) == 3

    def test_channel_type_violation_exits_3(self, monkeypatch):
        from ipsim.harness import ChannelTypeError

        def boom(self, *args, **kwargs):
            raise ChannelTypeError("injected test double")

        monkeypatch.setattr(PurityConfig, "run_one", boom)
        assert main(["purity", "--trials", "1", "d=4"]) == 3


class TestFormulaCheck:
    @staticmethod
    def _corrupt_trial(monkeypatch, bad_trial, key, delta):
        real = PurityConfig.run_one
        sessions = []

        def run_one(self, *args, **kwargs):
            res = real(self, *args, **kwargs)
            if len(sessions) == bad_trial:  # one session per trial, in trial order
                res.extras[key] += delta
            sessions.append(res)
            return res

        monkeypatch.setattr(PurityConfig, "run_one", run_one)

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


# sha256 of (report.json, trials.csv) of one small run per protocol, computed
# with the per-protocol adapters the config classes replaced; CONFIG_FILE is
# written next to the run as exp.cfg
CONFIG_FILE = "d = 4\ndelta = 0.25\nadversary = best-effort-liar\nseed = 11\n"
GOLDEN = {
    "nogo-abort-row": (
        ["nogo", "--trials", "10", "--seed", "3", "d=4", "instance=reject"],
        "d1c3dc7df5b1b8352b6d52a9d2c34b8ceec205d7c01f21096d98bfc925151597",
        "617ea2a895bd67dae67d5cb0d27acedb02c2847dfcc6dc43d8a714b1a04c0ec3",
    ),
    "nogo-accept": (
        ["nogo", "--trials", "6", "--seed", "3", "d=4"],
        "26f39513e3bb488bf20e59ab07bbe42ead975df23874d767a27f5e3e2b672945",
        "716e8bc6281352b7c4b420fb6e87ed2d79b660f04d4764b4b462256e77d6887a",
    ),
    "uniformity-tau-negative": (
        ["uniformity", "--trials", "3", "--seed", "5", "k=256", "epsilon=0.9",
         "allow_small_epsilon=true", "distribution=support_fraction"],
        "fd7163d6fa2f9ff8615874293c2b6aca22e4c63a09981a2ebb5f5eff6113d1bf",
        "8ab2564632a37cd960f4a3d56e0134e344d2d90a1ca9eb5d74d047b3d14f0f0f",
    ),
    "tomo-sampled": (
        ["tomo", "--mode", "sampled", "--trials", "3", "--seed", "5", "d=4"],
        "d2eb8a5604b6ffccaad9d56113cba7cc47a3ca14d3b88d656683d9869b260995",
        "58f0d47f79d6e2f1b87f70537b8a89155d40925ff9486bd9d84e825b713c519f",
    ),
    "purity-transcripts": (
        ["purity", "--transcripts", "--trials", "3", "--seed", "5", "d=4"],
        "63c9a895d848dbf656ebac106bd63700f695b410d1cc6b559abf595035eac027",
        "37b29079ef08e0a5f08fdf5a59a5e80c767f26b7e930d94702eebb1ce7eac0d6",
    ),
    "trivial-exact-garbage": (
        ["trivial", "--trials", "5", "--seed", "5", "checker=exact-test", "adversary=garbage"],
        "c45f48a4cdb22fdf38df25d12c0d7b1ef6f5aafd027cea9502bc925db7cfca5f",
        "deeaf04ee5fef1fcaf70b36560975b9ff5c9b9ae47e5c49333d5cdc1227fc503",
    ),
    "purity-config-file": (
        ["purity", "--config", "exp.cfg", "--trials", "4"],
        "2a0f7bbaa485825dad991728c093222c04d1193fb3639bbd9d1553321295158a",
        "940a8d850088a6cdda616245d17ceb46d8c956bdfc5125c2db9b0d1f28db3968",
    ),
    "lowrank-sampled": (
        ["lowrank", "--mode", "sampled", "--trials", "3", "--seed", "5", "d=2"],
        "ac9e009c29502ab92a9233ae72f487ad346d302155ddd0d0bb7627967836ed30",
        "b14d6bec57e102259650fece665ba5ade4d5f8da90b873a69c901410a6300115",
    ),
    "stab-sampled": (
        ["stab", "--mode", "sampled", "--trials", "3", "--seed", "5", "n=2"],
        "af163c892e49dbb833e8eaf32b97cc409e5529bb9c1ecaa6bb02eb4988c26f14",
        "48ce9bd6a8c5cdb8bb240a867519ac19bb5a011fcde6870ec365a11c995cff2f",
    ),
}

# each protocol's keys: its config fields (less mode and record_transcript)
# plus adversary, and instance for purity and nogo
KEY_SETS = {
    "purity": {"d", "delta", "mask_ensemble", "adversary", "instance"},
    "tomo": {"d", "epsilon", "delta", "rank_k", "adversary", "c_v", "c_p"},
    "lowrank": {"d", "k", "epsilon", "delta", "variant", "adversary"},
    "stab": {"n", "epsilon", "delta", "adversary"},
    "uniformity": {
        "k", "epsilon", "degree_cap", "distribution", "support_fraction", "adversary",
        "allow_small_epsilon",
    },
    "nogo": {"d", "delta", "instance"},
    "trivial": {"n", "epsilon", "delta", "checker", "adversary"},
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_digests(report: dict, out: Path):
    """Every transcript digest is non-empty and matches its file."""
    files = sorted((out / "transcripts").iterdir())
    assert len(files) == len(report["transcript_digests"]) > 0
    for entry, path in zip(report["transcript_digests"], files):
        lines = path.read_text().rstrip("\n").split("\n")
        assert entry["lines"] == len(lines) > 0
        assert entry["sha256"] == hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_report_bytes_unchanged(self, name, tmp_path, monkeypatch):
        argv, report_sha, csv_sha = GOLDEN[name]
        (tmp_path / "exp.cfg").write_text(CONFIG_FILE)
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "out"]) == 0
        out = tmp_path / "out"
        assert (_sha256(out / "report.json"), _sha256(out / "trials.csv")) == (report_sha, csv_sha)
        report = json.loads((out / "report.json").read_text())
        if "--transcripts" in argv:
            _check_digests(report, out)
        if name == "nogo-abort-row":
            # an aborted distinguisher run answers "reject" and is judged on that
            assert {"verdict": "aborted", "valid": True}.items() <= report["rows"][0].items()

    def test_nogo_transcripts_are_recorded(self, tmp_path):
        out = tmp_path / "out"
        argv = ["nogo", "--trials", "2", "--seed", "7", "--transcripts", "--out", str(out)]
        assert main(argv + ["d=4", "instance=reject"]) == 0
        _check_digests(json.loads((out / "report.json").read_text()), out)


class TestProtocolKeys:
    def test_key_sets(self):
        assert {name: set(cli.protocol_keys(cls)) for name, cls in cli.PROTOCOLS.items()} == KEY_SETS

    @pytest.mark.parametrize("protocol", sorted(KEY_SETS))
    def test_unknown_key_names_the_allowed_keys(self, protocol):
        cfg = ExperimentConfig(protocol=protocol, trials=1, protocol_keys={"zzz": 1})
        allowed = ", ".join(sorted(KEY_SETS[protocol]))
        with pytest.raises(cli.ConfigError, match=f"unknown key 'zzz'.*allowed: {allowed}$"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "protocol, item",
        [
            ("purity", "kind_seed=1"),
            ("stab", "instance_mix=0.1"),
            ("purity", "record_transcript=true"),
            ("tomo", "record_transcript=true"),
        ],
    )
    def test_non_keys_exit_2(self, protocol, item, capsys):
        assert main([protocol, "--trials", "1", item]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_value_types(self):
        ok = {"d": 2, "rank_k": 1, "c_v": 2}  # an int is accepted for a float
        run_experiment(ExperimentConfig(protocol="tomo", trials=1, protocol_keys=ok))
        for bad in ({"d": 2.0}, {"d": True}, {"rank_k": 1.5}, {"c_v": True}, {"adversary": 3}):
            with pytest.raises(cli.ConfigError, match="expects"):
                run_experiment(ExperimentConfig(protocol="tomo", trials=1, protocol_keys=bad))


class TestUnknownChoices:
    @pytest.mark.parametrize(
        "protocol", sorted(p for p, keys in KEY_SETS.items() if "adversary" in keys)
    )
    def test_unknown_adversary_exits_2_before_any_session(self, protocol, monkeypatch, capsys):
        def no_session(*args, **kwargs):
            raise AssertionError("a session ran before the prover was built")

        monkeypatch.setattr(cli.PROTOCOLS[protocol], "run_one", no_session)
        assert main([protocol, "--trials", "1", "adversary=nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown adversary 'nope'; choose from ")
        assert "honest" in err

    def test_unknown_checker_exits_2(self, capsys):
        assert main(["trivial", "--trials", "1", "checker=nope"]) == 2
        err = capsys.readouterr().err
        assert "config error: unknown checker 'nope'; choose from exact-test, ideal, sampled" in err
