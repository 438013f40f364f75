"""CLI and report tests: config validation, dispatch, determinism, exit codes."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ipsim
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

    @pytest.mark.parametrize(
        "protocol, item",
        [
            ("tomo", "d=1"),
            ("tomo", "delta=0"),
            ("tomo", "delta=1"),
            ("tomo", "epsilon=0"),
            ("stab", "n=0"),
            ("stab", "n=-1"),
            ("stab", "n=5"),
            ("trivial", "n=0"),
            ("tomo", "rank_k=0"),
            ("tomo", "rank_k=5"),
            ("lowrank", "d=1"),
            ("purity", "d=1"),
            ("nogo", "d=1"),
            ("tomo", "epsilon=1.5"),
            ("stab", "delta=0"),
            ("lowrank", "k=5"),
            ("lowrank", "variant=nope"),
            ("purity", "delta=1.5"),
            ("nogo", "delta=0"),
            ("uniformity", "k=100"),
            ("uniformity", "epsilon=1.5"),
            ("uniformity", "support_fraction=0"),
            ("uniformity", "support_fraction=1.5"),
            ("uniformity", "distribution=nope"),
            ("trivial", "epsilon=0"),
            ("trivial", "delta=2"),
        ],
    )
    def test_out_of_range_key_is_a_config_error_naming_it(self, protocol, item, capsys):
        assert main([protocol, "--trials", "1", item]) == 2
        key = item.split("=")[0]
        assert capsys.readouterr().err.startswith(f"config error: {key} must be")

    @pytest.mark.parametrize("item", ["trials=2.7", "seed=2.9", "transcripts=no", "mode=1", "trials=true"])
    def test_reserved_key_of_wrong_type_exits_2_naming_it(self, item, tmp_path, capsys):
        key = item.split("=")[0]
        path = tmp_path / "exp.cfg"
        path.write_text(item.replace("=", " = ") + "\n")
        for argv in (["purity", item], ["purity", "--config", str(path)]):
            assert main(argv + ["d=4"]) == 2
            assert capsys.readouterr().err.startswith(f"config error: key {key!r} expects")

    def test_reserved_keys_of_the_right_type_are_echoed(self, tmp_path):
        items = ["trials=1", "seed=2", "mode=ideal", "transcripts=true"]
        assert main(["purity", "d=4", *items, "--out", str(tmp_path)]) == 0
        echo = json.loads((tmp_path / "report.json").read_text())["config"]
        assert (echo["trials"], echo["seed"], echo["mode"], echo["transcripts"]) == (1, 2, "ideal", True)

    @pytest.mark.parametrize("mode", ["ideal", "sampled"])
    def test_lowrank_d_below_two_rejected_in_both_modes(self, mode, capsys):
        assert main(["lowrank", "--mode", mode, "--trials", "1", "d=1"]) == 2
        assert capsys.readouterr().err.startswith("config error: d must be >= 2")

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_degree_cap_below_one_rejected(self, cap, capsys):
        argv = ["uniformity", "--trials", "2", "--seed", "1", "k=16", "epsilon=0.9"]
        assert main(argv + ["allow_small_epsilon=true", f"degree_cap={cap}"]) == 2
        assert "degree_cap must be >= 1" in capsys.readouterr().err

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


# one small run per protocol; the uniformity keys are those of
# test_all_protocols_dispatch
SMALL_RUNS = {
    "purity": ["d=4"],
    "tomo": ["d=2"],
    "lowrank": ["d=2"],
    "stab": ["n=2"],
    "uniformity": ["k=256", "epsilon=0.9", "degree_cap=32", "allow_small_epsilon=true"],
    "nogo": ["d=4"],
    "trivial": [],
}


class TestReproducibleOutputs:
    @pytest.mark.parametrize("protocol", sorted(SMALL_RUNS))
    def test_two_processes_write_identical_bytes(self, protocol, tmp_path):
        """Report and transcripts are the same bytes from two separate processes."""
        env = dict(os.environ, PYTHONPATH=str(Path(ipsim.__file__).parents[1]))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            argv = [protocol, "--trials", "2", "--seed", "3", "--transcripts", "--out", str(out)]
            subprocess.run(
                [sys.executable, "-m", "ipsim.cli", *argv, *SMALL_RUNS[protocol]],
                env=env,
                check=True,
                capture_output=True,
            )
            outs.append(out)
        a, b = outs
        names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert Path("report.json") in names and len(names) == 4  # report, csv, 2 transcripts
        assert names == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


# sha256 of (report.json, trials.csv) of one small run per protocol, computed
# with the per-protocol adapters the config classes replaced; CONFIG_FILE is
# written next to the run as exp.cfg
CONFIG_FILE = "d = 4\ndelta = 0.25\nadversary = best-effort-liar\nseed = 11\n"
GOLDEN = {
    "nogo-abort-row": (
        ["nogo", "--trials", "10", "--seed", "3", "d=4", "instance=reject"],
        # rates carry "correct": 10 of 10, the aborted row's "reject" included
        "4f24aefdb0f130bf522162143e7d8dd02094665051cf4b36acf4491319a20d53",
        "617ea2a895bd67dae67d5cb0d27acedb02c2847dfcc6dc43d8a714b1a04c0ec3",
    ),
    "nogo-accept": (
        ["nogo", "--trials", "6", "--seed", "3", "d=4"],
        "95c6302dbcdd56d65f238df7222012af6da048670e1a05ecadb47fda5e4a351d",
        "716e8bc6281352b7c4b420fb6e87ed2d79b660f04d4764b4b462256e77d6887a",
    ),
    "uniformity-tau-negative": (
        ["uniformity", "--trials", "3", "--seed", "5", "k=256", "epsilon=0.9",
         "allow_small_epsilon=true", "distribution=support_fraction"],
        # far sessions whose announced cap, max f, is above the config's 32
        # after one pass of n = 2766 samples
        "c3c18428eda85df1ae48bce0f61120972673cef18eaea9a3fa9d14ea94a97c6c",
        "a6477df849dd026f9b459e14656d37cb5c2e9a39a8a1aaa82b9013f2c69e6bee",
    ),
    # sessions whose announced cap is at most the config's 32: uniform streams
    # at cap max f, and a range-clamp prover that hides a point mass at cap 32
    "uniformity-uniform-transcripts": (
        ["uniformity", "--transcripts", "--trials", "3", "--seed", "5", "k=256", "epsilon=0.9",
         "allow_small_epsilon=true"],
        "cbd372a3a60a606fcb60421d78dc38f29ae9262163f95ab66f650e3fb27071c3",
        "b0e2e3cb61b26be36a6caaf8ac40aca651e875608e755cb68ea1e52078277083",
    ),
    "uniformity-range-clamp": (
        ["uniformity", "--trials", "3", "--seed", "5", "k=4096", "epsilon=1.0",
         "allow_small_epsilon=true", "distribution=point_mass", "adversary=range-clamp"],
        "20c42911cc591cba4378bcf912d161fa751ea7c42b8da758575c21619cb5b47e",
        "41e6cd6a906a4720f7f80f2877cd38c8055b54ca7c2d1c9c471a2f357a904f04",
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
    # Clifford and Pauli masks, and Haar masks on pure instances under a liar
    "purity-clifford-masks": (
        ["purity", "--trials", "4", "--seed", "5", "d=4", "mask_ensemble=clifford"],
        "e473a08b2786910541683cc9e2ec1d5d5ba0ebfb8b3e4556caf3c812dddea433",
        "baeb1fe0be972e282c6dcbdeefcb0e1c2d2f166cb23eae951e8b00984daf88ec",
    ),
    "purity-pauli-masks": (
        ["purity", "--trials", "4", "--seed", "5", "d=4", "mask_ensemble=pauli"],
        "8f099c433b1bce3412e720ea230b0f7460b700dc3832fa5787749eb0cc380ff9",
        "baeb1fe0be972e282c6dcbdeefcb0e1c2d2f166cb23eae951e8b00984daf88ec",
    ),
    # sessions whose bytes the batched purity rounds must not move: the
    # benchmark's honest d = 8 config, d = 8 nogo transcripts, and a prover
    # that draws from its generator on every round
    "purity-d8-benchmark": (
        ["purity", "--trials", "20", "--seed", "7", "d=8", "delta=0.3333"],
        "f210150d07597f4efbbce93eb0caf487fbc447077827de49fafef03ee750fe21",
        "d24e590bc40e6329bd7415171b154432d9036daa32f0f8db6a4a7f57e7bbf2f2",
    ),
    "nogo-d8-transcripts": (
        ["nogo", "--transcripts", "--trials", "4", "--seed", "5", "d=8"],
        "5a3e8b68c69a3951bb70d45a5adbf34cf82619feaf396de9b6fa2c597cd94390",
        "be4d0a3b5c3e34c3e876592f57de01e7e9d3805e9d9b2ccb971f340da1dbae1e",
    ),
    "purity-uniform-random": (
        ["purity", "--trials", "6", "--seed", "5", "d=4", "adversary=uniform-random"],
        "b6ee1010d38d0197d6796a7bb130a9296ea13d7d9d9cfe14caa810ccbf2e8a2b",
        "3d0629b74232e0f4eb32dcbe571eae1186ba553e2d0d6b6eb6f3d1bc1ae58c91",
    ),
    "purity-reject-liar": (
        ["purity", "--trials", "3", "--seed", "5", "d=8", "instance=reject", "adversary=best-effort-liar"],
        "d9a768e4f89f484399674c9064d3049078d39ec6bc4b00e0c63518d892c2db2c",
        "67303c6e0fdb52930095fd9ca217e3e79542131a6a6f7b31c573d2c907c08c0e",
    ),
    "trivial-exact-garbage": (
        ["trivial", "--trials", "5", "--seed", "5", "checker=exact-test", "adversary=garbage"],
        # bits_c counts the hypothesis's canonical generator encoding (200 bits)
        "77f6ce73252513da865e45dc9a201cced230dd62a0bbdffa40434240d1655398",
        "fe099c1331d835c8722bf0c7d4133e64c87ab10becfc85fc38d12e14460f19b6",
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
    # the delegation contract: a caught tamper (19 of 20 ideal trials), an
    # escaped one, and the honest pass-through in ideal lowrank and stab
    "tomo-ideal-tamperer": (
        ["tomo", "--trials", "20", "--seed", "5", "adversary=delegation-tamperer"],
        "482ee1f1e1357dd8d4b941e9556743c4b2ac8178c7d39a39c4627bbcaa2fbc19",
        "4b5da6a46db08ff99b81730d522df8ba3da2b25527ec53cdae9814ff0c339e5a",
    ),
    "tomo-sampled-tamperer": (
        ["tomo", "--mode", "sampled", "--transcripts", "--trials", "3", "--seed", "5",
         "d=2", "epsilon=0.8", "adversary=delegation-tamperer"],
        "dec701e616587e0826cdac30f74b55db3191ccd979bf2d39df10c6b61e3c3218",
        "7f001408147b312822b4db47f868e2f896cfaadd5d483e52a9724b1da39d0a1f",
    ),
    "lowrank-ideal": (
        ["lowrank", "--trials", "20", "--seed", "5"],
        "d87699e21755f71b84c378c999e4796dce6f62604e1abd33dca48e2f0c9d7357",
        "7456a856641f39412ba3a2479a312235fc2faefaf75afaa685efa5afad656ce7",
    ),
    "stab-ideal": (
        ["stab", "--trials", "20", "--seed", "5", "n=2"],
        "983d14c74169e19617cbf813ffce4b97a9c470a3775c3d8ae616831e8ef15ce3",
        "4e7450809a2ef42ee90329b198e2d264b031004a6fac35fb080608e6c28e5e8b",
    ),
    "stab-sampled": (
        ["stab", "--mode", "sampled", "--trials", "3", "--seed", "5", "n=2"],
        # qudits_q counts the 6 * a3_samples = 9636 delegated copies sent v->p
        "36761f1b2d4a0e24f589b38c2ac26fac36ae61436c74051e60354c6fb2f7f7c4",
        "2083484ee10fcd8e1247df3da4def87d7ed9d654c5b4aa2e36f1b362699bc107",
    ),
    # the sampled moment estimator at n = 1 and 3, honest and under a liar; computed
    # while it kept its own copy of the Bell-difference and Pauli-moment laws
    "stab-sampled-n1": (
        ["stab", "--mode", "sampled", "--trials", "3", "--seed", "5", "n=1"],
        "63563375d675abfb5b97a5eac4e8ecb60659c2552be8521ea5e43e32f39ef694",
        "30bd1971cf08938470a9c7ec0d6dfe0623857e54afcd5a05666d5cd7f98ed814",
    ),
    "stab-sampled-n3": (
        ["stab", "--mode", "sampled", "--trials", "3", "--seed", "5", "n=3"],
        "04b028c5a914858ca69dc72114b878b753df722db202b397dcee79b1a868cd59",
        "a69f78efc7881aa04597242c05b42ca22e9fd1d7606a6616603c1d465ea2832c",
    ),
    "stab-sampled-n3-worst": (
        ["stab", "--mode", "sampled", "--trials", "3", "--seed", "5", "n=3", "adversary=worst-stabilizer"],
        "a641bdd1560e4090723556ba621a7fffa413bf699e50656b96c77ebf35556d01",
        "85a5738c3d317cd460acb07bc227230cce936d97fa2d70afe6844d9b4a30db4c",
    ),
    # the benchmark's n = 4 path, honest and under the farthest-state liar; computed
    # while fidelities came from the complex amplitude-table product
    "stab-n4": (
        ["stab", "--trials", "20", "--seed", "5", "n=4"],
        "e3f186f791c46520cf74beef4d21d18eb97a5368a6372bcb02795d48854b1141",
        "d26c85bf0ae2e7545d2a77f2faa78ebe72fc38b8a4f2e6d494cc13bbc3148676",
    ),
    "stab-n4-worst": (
        ["stab", "--trials", "20", "--seed", "5", "--transcripts", "n=4", "adversary=worst-stabilizer"],
        "1c56407b3e78dff7e061a12831fe34ce3f6789a99859ff2bfaed358932074583",
        "3a6f3b3206bd116f09558449eea87d4cd77558d22bb896b914a3c8994a21f245",
    ),
    # the garbage prover sends the first state within 1e-12 of the least
    # fidelity; pinned once that rule replaced argmin, whose pick among the
    # orthogonal states moved with float noise (trials 1 and 8 here)
    "trivial-garbage-n3": (
        ["trivial", "--trials", "10", "--seed", "3", "--transcripts", "n=3", "adversary=garbage"],
        "909fd6f33b27e3cad6f0f7e2889daaa43562bd47bc074d3b8e6076164ab2f989",
        "eb57b1b1f82a817acd7314e35161a8735756e6082c57bc38165a1db4c4522a23",
    ),
    # paths that read derived parameters: the lowrank variants, tomo's rank-k
    # budgets and the decision-flip prover on the collision rule (k = 256) and
    # on the unique-count rule (k = 16384); computed while each protocol kept
    # a parameter class apart from its config
    "lowrank-wide": (
        ["lowrank", "--trials", "10", "--seed", "5", "variant=wide"],
        "9a6e17cc08853ee32af16327b8d6c42ca7081004de79d7d3e285bd500dd47264",
        "6e558718d2c5e2d9f9d5f814d23cff41c7e51c8fc061f8eb181b46c375140fd8",
    ),
    "lowrank-state": (
        ["lowrank", "--trials", "10", "--seed", "5", "variant=state"],
        "1f51063e0e793815105e68ccef34990ab70729d4970b2e464c80183d71454831",
        "6e558718d2c5e2d9f9d5f814d23cff41c7e51c8fc061f8eb181b46c375140fd8",
    ),
    "tomo-rank-k": (
        ["tomo", "--trials", "10", "--seed", "5", "d=4", "rank_k=2"],
        "81fc5083126cdf9a9b98f51ce776de5aef43b23c0eceb90a0a653dc00b69bcb4",
        "1d5ee7d533d6712435dca80eee0e28ef6772bbce24d41b49236d0e30332e597a",
    ),
    "uniformity-decision-flip-collisions": (
        ["uniformity", "--trials", "2", "--seed", "5", "k=256", "epsilon=0.9",
         "allow_small_epsilon=true", "adversary=decision-flip"],
        "e383cf3fffadfb577bdd0b5314a5c5c03d7b4ef25b2bf7d91efd7e97d145cf05",
        "c81cf840e3b0725a43ef619dd771c1ba80b7847cf74e96fb1053138081dbaddf",
    ),
    "uniformity-decision-flip-unique": (
        ["uniformity", "--trials", "2", "--seed", "5", "k=16384", "epsilon=1.0",
         "allow_small_epsilon=true", "adversary=decision-flip"],
        "5ec5cc20274910401b1d112640a2bfd1781f7c1ee9a801211f485e7a4e7ea9ad",
        "b778a5932ae376ed069783718d264927f9134ed2434ae8d9e9404db6257ea289",
    ),
}

# each protocol's keys: its config fields (less mode and record_transcript)
# plus adversary, and instance for purity and nogo
KEY_SETS = {
    "purity": {"d", "delta", "mask_ensemble", "adversary", "instance"},
    "tomo": {"d", "epsilon", "delta", "rank_k", "adversary"},
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
        runs = []
        real_run = cli.run_experiment

        def run_experiment(config):
            runs.append(real_run(config))
            return runs[-1]

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        assert main(argv + ["--out", "out"]) == 0
        out = tmp_path / "out"
        assert (_sha256(out / "report.json"), _sha256(out / "trials.csv")) == (report_sha, csv_sha)
        report = json.loads((out / "report.json").read_text())
        if "--transcripts" in argv:
            _check_digests(report, out)
        if name.startswith("uniformity-") and name != "uniformity-tau-negative":
            _, results = runs[0]
            assert max(res.extras["final_degree_cap"] for res in results) <= 32  # the cap never widened
        # only the distinguisher reports its rate of correct answers
        assert ("correct" in report["rates"]) == name.startswith("nogo-")
        if name == "nogo-abort-row":
            # an aborted distinguisher run answers "reject" and is judged on that
            assert {"verdict": "aborted", "valid": True}.items() <= report["rows"][0].items()
            assert report["rates"]["abort"]["count"] == 1
            assert report["rates"]["correct"]["count"] == 10

    def test_nogo_transcripts_are_recorded(self, tmp_path):
        out = tmp_path / "out"
        argv = ["nogo", "--trials", "2", "--seed", "7", "--transcripts", "--out", str(out)]
        assert main(argv + ["d=4", "instance=reject"]) == 0
        _check_digests(json.loads((out / "report.json").read_text()), out)


class TestProtocolKeys:
    def test_key_sets(self):
        assert {name: set(cli.protocol_keys(cls)) for name, cls in cli.PROTOCOLS.items()} == KEY_SETS

    @pytest.mark.parametrize("protocol", ["purity", "tomo", "lowrank", "stab", "uniformity", "nogo", "trivial"])
    def test_parameter_configs_are_frozen(self, protocol):
        cfg = cli.PROTOCOLS[protocol]()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.record_transcript = True

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
        ok = {"d": 2, "rank_k": 1}
        run_experiment(ExperimentConfig(protocol="tomo", trials=1, protocol_keys=ok))
        protocol, _, _ = cli.build_protocol(ExperimentConfig(protocol="uniformity", protocol_keys={"epsilon": 1}))
        assert protocol.epsilon == 1  # an int is accepted for a float
        for bad in ({"d": 2.0}, {"d": True}, {"rank_k": 1.5}, {"epsilon": True}, {"adversary": 3}):
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

    def test_out_under_a_file_exits_2_before_any_session(self, tmp_path, monkeypatch, capsys):
        def no_session(*args, **kwargs):
            raise AssertionError("a session ran before --out was checked")

        monkeypatch.setattr(PurityConfig, "run_one", no_session)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        out = blocker / "x"
        assert main(["purity", "--trials", "2", "--transcripts", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write --out {out}: ")
        assert not out.exists()

    def test_unknown_checker_exits_2(self, capsys):
        assert main(["trivial", "--trials", "1", "checker=nope"]) == 2
        err = capsys.readouterr().err
        assert "config error: unknown checker 'nope'; choose from exact-test, ideal, sampled" in err


class TestModeKey:
    @pytest.mark.parametrize("protocol", ["purity", "uniformity", "nogo", "trivial"])
    def test_sampled_mode_rejected_without_a_mode_field(self, protocol, capsys):
        assert main([protocol, "--mode", "sampled", "--trials", "1", *SMALL_RUNS[protocol]]) == 2
        assert f"protocol {protocol} has no mode" in capsys.readouterr().err
        cfg = ExperimentConfig(protocol=protocol, mode="ideal", protocol_keys={})
        cli.build_protocol(cfg)  # the default mode stays accepted

    def test_mode_from_a_config_file_is_checked_too(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("mode = sampled\nd = 4\n")
        assert main(["purity", "--config", str(path), "--trials", "1"]) == 2
        assert "has no mode" in capsys.readouterr().err


def _readme_commands() -> list[list[str]]:
    """The ipsim commands of README's "Running experiments" block, without "ipsim"."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Running experiments", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("ipsim ")]


README_COMMANDS = _readme_commands()


class TestReadmeCommands:
    def test_block_found(self):
        assert {argv[0] for argv in README_COMMANDS} == set(cli.PROTOCOLS)

    @pytest.mark.parametrize(
        "argv", README_COMMANDS, ids=[f"{argv[0]}-{i}" for i, argv in enumerate(README_COMMANDS)]
    )
    def test_runs_with_one_trial(self, argv, tmp_path):
        argv = list(argv)
        argv[argv.index("--trials") + 1] = "1"
        if "--out" in argv:
            at = argv.index("--out")
            del argv[at : at + 2]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert (tmp_path / "report.json").exists()
