"""Configuration parsing and the command-line runner."""
import csv
import hashlib
import math
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import pytest

import saginfl
from saginfl import cli, simulation
from saginfl.cli import main
from saginfl.config import (
    AXES,
    apply_axis,
    load_config,
    parse_config_text,
    unread_keys,
    validate_config,
)
from saginfl.errors import ConfigurationError, TrainingError

SMALL_CONFIG = textwrap.dedent("""\
    [topology]
    kind = single
    n_sats = 4
    n_air = 8
    devices_per_air = 2

    [data]
    n_classes = 8
    feature_dim = 8
    classes_per_device = 2
    samples_per_device = 15
    test_samples = 300

    [training]
    tau1 = 2
    tau2 = 2
    global_rounds = 3

    [policy]
    name = cnasa
    n_geo = 2

    [run]
    seed = 7
    output_dir = out
""")

LABEL_RULE = ("[run] label must be free of '/' and NUL, and short enough "
              "that <label>_<policy>_seed<seed>.topology.tsv fits in 255 "
              "bytes, got ")

WALKER_CONFIG = SMALL_CONFIG.replace("kind = single", "kind = walker").replace(
    "n_sats = 4", "n_planes = 4\nsats_per_plane = 6")


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(SMALL_CONFIG)
    return p


@pytest.fixture(autouse=True)
def output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("SAGINFL_OUTPUT_ROOT", str(tmp_path))
    return tmp_path


class TestConfigParsing:
    def test_round_trip_defaults(self):
        cfg = parse_config_text(SMALL_CONFIG)
        assert cfg.topology.n_sats == 4
        assert cfg.policy.n_geo == 2
        assert cfg.run.seed == 7
        assert cfg.training.learning_rate > 0  # default applied

    def test_missing_seed_rejected(self):
        text = SMALL_CONFIG.replace("seed = 7\n", "")
        with pytest.raises(ConfigurationError, match="seed"):
            parse_config_text(text)

    def test_missing_section_rejected(self):
        text = SMALL_CONFIG.replace("[policy]\nname = cnasa\nn_geo = 2\n", "")
        with pytest.raises(ConfigurationError, match="policy"):
            parse_config_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config_text(SMALL_CONFIG + "\nwarp_speed = 9\n")

    def test_unknown_section_rejected(self):
        text = SMALL_CONFIG + "\n[trainig]\nlearning_rate = 5\n"
        with pytest.raises(ConfigurationError) as info:
            parse_config_text(text)
        assert str(info.value) == "unknown config section [trainig]"

    @pytest.mark.parametrize("key", ["learning_rate = 5", "seed = 3", ""])
    def test_default_section_rejected(self, key):
        # configparser would merge [DEFAULT] into every section, and the
        # error would then name a section the file never wrote
        with pytest.raises(ConfigurationError) as info:
            parse_config_text(f"[DEFAULT]\n{key}\n" + SMALL_CONFIG)
        assert str(info.value) == "unknown config section [DEFAULT]"

    def test_label_stem_fits_a_file_name_in_bytes(self):
        # <label>_cnasa-2_seed7.topology.tsv takes 27 bytes besides the label
        for label, fits in (("a" * 228, True), ("a" * 229, False),
                            ("\u00e9" * 114, True), ("\u00e9" * 115, False)):
            text = SMALL_CONFIG + f"label = {label}\n"
            if fits:
                assert parse_config_text(text).run.label == label
                continue
            with pytest.raises(ConfigurationError) as info:
                parse_config_text(text)
            assert str(info.value) == LABEL_RULE + repr(label)

    def test_bad_value_names_field(self):
        text = SMALL_CONFIG.replace("n_sats = 4", "n_sats = many")
        with pytest.raises(ConfigurationError, match="n_sats"):
            parse_config_text(text)

    def test_n_geo_out_of_range(self):
        text = SMALL_CONFIG.replace("n_geo = 2", "n_geo = 9")
        with pytest.raises(ConfigurationError, match="n_geo"):
            parse_config_text(text)

    @pytest.mark.parametrize("section,old,new", [
        ("training", "tau1 = 2", "tau1 = 2\nlearning_rate = 0"),
        ("training", "tau1 = 2", "tau1 = 2\nlearning_rate = -0.5"),
        ("training", "tau1 = 2", "tau1 = 2\nl2 = -1e-3"),
        ("training", "tau1 = 2", "tau1 = 2\nhidden_dim = 0"),
        ("data", "test_samples = 300", "test_samples = 0"),
    ], ids=["learning_rate_zero", "learning_rate_negative", "l2_negative",
            "hidden_dim_zero", "test_samples_zero"])
    def test_out_of_domain_value_names_field(self, section, old, new):
        field = new.split("\n")[-1].split(" = ")[0]
        with pytest.raises(ConfigurationError, match=rf"\[{section}\] {field}"):
            parse_config_text(SMALL_CONFIG.replace(old, new))

    @pytest.mark.parametrize("section,key,value", [
        ("data", "samples_per_device", 0),
        ("training", "bits_per_param", 0),
        ("training", "flops_device", 0.0),
        ("topology", "sg_rate_bps", 0.0),
        ("topology", "ss_prop_s", -1.0),
        ("data", "geo_bin_deg", -5.0),
        ("topology", "altitude_km", math.nan),
        ("data", "blob_scale", math.nan),
        ("topology", "n_sats", 0),
        ("topology", "n_air", 0),
        ("policy", "n_geo", 0),
        ("training", "tau1", 0),
        ("data", "classes_per_device", 0),
        ("data", "classes_per_device", 9),      # n_classes + 1
        ("data", "feature_dim", 7),             # below n_classes
        ("training", "learner", "tree"),
        ("data", "geo_bin_deg", 1e-307),        # 360 / width overflows
        ("data", "geo_bin_deg", 5e-324),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_run_rejects_value_naming_section_and_key(self, section, key,
                                                      value):
        cfg = parse_config_text(SMALL_CONFIG)
        cfg = replace(cfg, **{section: replace(getattr(cfg, section),
                                               **{key: value})})
        with pytest.raises(ConfigurationError, match=rf"\[{section}\] {key}"):
            saginfl.run_obl(cfg)

    @pytest.mark.parametrize("section,key,value", [
        ("topology", "inclination_deg", 0.0),
        ("topology", "inclination_deg", 180.0),
        ("topology", "n_planes", 1),
        ("topology", "sats_per_plane", 2),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_walker_run_rejects_value_naming_section_and_key(self, section,
                                                             key, value):
        cfg = parse_config_text(WALKER_CONFIG)
        cfg = replace(cfg, **{section: replace(getattr(cfg, section),
                                               **{key: value})})
        with pytest.raises(ConfigurationError, match=rf"\[{section}\] {key}"):
            saginfl.run_obl(cfg)

    @pytest.mark.parametrize("section,key,value,rule", [
        ("topology", "sg_rate_bps", 1e-310, "large .* one model transfer"),
        ("topology", "ga_rate_bps", 5e-324, "large .* one model transfer"),
        ("topology", "as_rate_bps", 1e-306, "large .* one model transfer"),
        ("topology", "ss_rate_bps", 5e-324, "large .* one model transfer"),
        ("training", "flops_air", 5e-324, "large .* one aggregation"),
        ("training", "flops_satellite", 5e-324, "large .* one aggregation"),
        ("training", "flops_model", 1e308, "small .* one local step"),
        ("training", "flops_device", 5e-324, "large .* one local step"),
    ], ids=lambda v: v if isinstance(v, str) and "_" in v else None)
    def test_non_finite_transfer_or_step_time_names_key(self, section, key,
                                                        value, rule):
        # before, these ran to total_time_s = inf or failed inside CNASA's
        # matching without naming a key
        cfg = parse_config_text(SMALL_CONFIG)
        cfg = replace(cfg, **{section: replace(getattr(cfg, section),
                                               **{key: value})})
        with pytest.raises(ConfigurationError, match=(
                rf"\[{section}\] {key} must be {rule} takes finite time, "
                rf"got {re.escape(repr(value))}")):
            validate_config(cfg)

    def test_slow_but_finite_rates_accepted(self):
        # flops_device = 1e-300 made three rounds of 6e307 s overflow, so
        # the run's total time is now rejected; 1e-290 keeps it finite
        cfg = parse_config_text(SMALL_CONFIG)
        cfg = replace(cfg, topology=replace(cfg.topology, ss_rate_bps=1e-300),
                      training=replace(cfg.training, flops_device=1e-290))
        assert validate_config(cfg) is cfg
        assert math.isfinite(saginfl.run_obl(cfg).total_time)

    def test_overflowing_round_sum_names_key(self):
        # every term of a round is finite, but tau2 * (T_SG + ...) is not
        cfg = parse_config_text(SMALL_CONFIG)
        cfg = replace(cfg, topology=replace(cfg.topology, sg_prop_s=1e308))
        with pytest.raises(ConfigurationError, match=re.escape(
                "[topology] sg_prop_s must be small enough that the run's "
                "total time is finite, got 1e+308")):
            validate_config(cfg)

    def test_overflowing_run_total_names_key(self):
        # one round costs about 4.4e307 s; the 30 rounds overflow
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                          / "single_orbit.ini")
        cfg = replace(cfg, topology=replace(cfg.topology, ss_prop_s=1e306))
        with pytest.raises(ConfigurationError, match=re.escape(
                "[topology] ss_prop_s must be small enough that the run's "
                "total time is finite, got 1e+306")):
            validate_config(cfg)
        # the one round alone is finite; CNASA's cluster sums are bounded
        # by 100 air nodes * 20 hops * 1e306 s, which is not, so the round
        # is checked under GDO, which does no matching
        one = replace(cfg, training=replace(cfg.training, global_rounds=1))
        validate_config(replace(one, policy=replace(one.policy, name="gdo")))
        with pytest.raises(ConfigurationError, match=re.escape(
                "[topology] ss_prop_s must be small enough that the cluster "
                "matching's costs stay finite, got 1e+306")):
            validate_config(one)

    def test_overflowing_matching_costs_name_key(self):
        # 400 air nodes over 2 single-satellite parts: one cluster's summed
        # delivery times, 200 uploads of 1e306 s, used to overflow inside
        # CNASA's matching with an InputError naming no key
        cfg = parse_config_text(SMALL_CONFIG)
        cfg = replace(
            cfg, topology=replace(cfg.topology, n_sats=2, n_air=400,
                                  devices_per_air=1, as_prop_s=1e306),
            training=replace(cfg.training, global_rounds=1),
            policy=replace(cfg.policy, n_geo=1))
        with pytest.raises(ConfigurationError, match=re.escape(
                "[topology] as_prop_s must be small enough that the cluster "
                "matching's costs stay finite, got 1e+306")):
            validate_config(cfg)
        gdo = replace(cfg, policy=replace(cfg.policy, name="gdo"))
        assert validate_config(gdo) is gdo
        assert math.isfinite(saginfl.run_obl(gdo).total_time)

    @pytest.mark.parametrize("section,key,value,message", [
        ("topology", "kind", "ring",
         "[topology] kind must be single|walker, got 'ring'"),
        ("policy", "name", "best",
         "[policy] name must be one of ('gdo', 'cdo', 'cnasa'), got 'best'"),
        ("policy", "n_geo", 5, "[policy] n_geo must be in [1, 4], got 5"),
        ("run", "sync_algo", "tree",
         "[run] sync_algo must be one of ('ring', 'gossip'), got 'tree'"),
        ("training", "learner", "tree",
         "[training] learner must be softmax|mlp, got 'tree'"),
        ("data", "classes_per_device", 9,
         "[data] classes_per_device must be in [1, 8], got 9"),
        ("training", "batch_size", 16,
         "[training] batch_size must be in [0, 15], got 16"),
        ("training", "batch_size", -1,
         "[training] batch_size must be in [0, 15], got -1"),
        ("data", "feature_dim", 7,
         "[data] feature_dim must be >= n_classes, got 7"),
        ("data", "class_scale_min", -1.0,
         "[data] class_scale_min must be >= 0, got -1.0"),
        ("data", "class_scale_max", -2.0,
         "[data] class_scale_max must be >= 0, got -2.0"),
        ("run", "label", "a/b", LABEL_RULE + "'a/b'"),
        ("run", "label", "a\0b", LABEL_RULE + "'a\\x00b'"),
    ], ids=["kind", "name", "n_geo", "sync_algo", "learner",
            "classes_per_device", "batch_size_above", "batch_size_below",
            "feature_dim", "class_scale_min", "class_scale_max",
            "label_slash", "label_nul"])
    def test_range_message_names_rule_and_value(self, section, key, value,
                                                message):
        cfg = parse_config_text(SMALL_CONFIG)
        cfg = replace(cfg, **{section: replace(getattr(cfg, section),
                                               **{key: value})})
        with pytest.raises(ConfigurationError) as info:
            validate_config(cfg)
        assert str(info.value) == message

    def test_zero_init_scale_rejected_only_under_mlp(self):
        text = SMALL_CONFIG.replace("[training]", "[training]\ninit_scale = 0")
        cfg = parse_config_text(text)
        assert cfg.training.init_scale == 0.0
        with pytest.raises(ConfigurationError,
                           match=r"\[training\] init_scale must be nonzero"):
            parse_config_text(text.replace("[training]",
                                           "[training]\nlearner = mlp"))

    def test_apply_axis_variants(self):
        cfg = parse_config_text(SMALL_CONFIG)
        assert apply_axis(cfg, "n_geo", 4).policy.n_geo == 4
        assert apply_axis(cfg, "tau2", 3).training.tau2 == 3
        assert apply_axis(cfg, "non_iid", 5).data.classes_per_device == 5
        assert apply_axis(cfg, "n_devices", 16).topology.devices_per_air == 2
        assert apply_axis(cfg, "n_air", 12).topology.n_air == 12
        assert apply_axis(cfg, "n_sats", 8).topology.n_sats == 8
        assert apply_axis(cfg, "sync_algo", "gossip").run.sync_algo == "gossip"
        assert apply_axis(cfg, "tau2", 3).run.label == "run_tau2-3"
        with pytest.raises(ConfigurationError):
            apply_axis(cfg, "n_devices", 17)
        with pytest.raises(ConfigurationError):
            apply_axis(cfg, "warp", 1)
        # axes the base configuration never reads
        with pytest.raises(ConfigurationError, match=r"orbits.*kind = single"):
            apply_axis(cfg, "orbits", 2)
        walker = parse_config_text(WALKER_CONFIG)
        for axis in ("n_sats", "n_air"):
            with pytest.raises(ConfigurationError,
                               match=rf"{axis}.*kind = walker"):
                apply_axis(walker, axis, 8)
        for policy in ("gdo", "cdo"):
            base = replace(cfg, policy=replace(cfg.policy, name=policy))
            with pytest.raises(ConfigurationError,
                               match=rf"n_geo.*name = {policy}"):
                apply_axis(base, "n_geo", 2)

    def test_every_axis_sets_exactly_its_key(self):
        single = parse_config_text(SMALL_CONFIG)
        walker = parse_config_text(WALKER_CONFIG)
        values = {"n_geo": 3, "tau2": 3, "non_iid": 5, "n_devices": 24,
                  "n_air": 12, "n_sats": 8, "orbits": 3, "sync_algo": "gossip"}
        assert set(values) == set(AXES)
        for axis, (section, key) in AXES.items():
            base = walker if axis == "orbits" else single
            assert key in {f.name for f in fields(getattr(base, section))}
            cell = validate_config(apply_axis(base, axis, values[axis]))
            changed = {
                (name, f.name) for name in ("topology", "data", "training",
                                            "policy", "run")
                for f in fields(getattr(base, name))
                if getattr(getattr(cell, name), f.name)
                != getattr(getattr(base, name), f.name)}
            extra = {("topology", "sats_per_plane")} if axis == "orbits" else set()
            assert changed == {(section, key), ("run", "label")} | extra, axis
            assert cell.run.label == f"run_{axis}-{values[axis]}"
            if axis != "n_devices":
                assert getattr(getattr(cell, section), key) == values[axis]
        # an axis is rejected exactly when the base never reads its key;
        # 48 devices divide both bases' air nodes
        gdo = replace(single, policy=replace(single.policy, name="gdo"))
        for base in (single, walker, gdo):
            unread = unread_keys(base)
            for axis, (section, key) in AXES.items():
                value = 48 if axis == "n_devices" else values[axis]
                if (section, key) in unread:
                    with pytest.raises(ConfigurationError, match=re.escape(
                            f"sweep axis {axis} has no effect on "
                            f"{unread[section, key]}")):
                        apply_axis(base, axis, value)
                else:
                    validate_config(apply_axis(base, axis, value))

    def test_apply_axis_orbits_keeps_total(self):
        cfg = parse_config_text(WALKER_CONFIG)
        swept = apply_axis(cfg, "orbits", 2)
        assert swept.topology.n_planes == 2
        assert swept.topology.sats_per_plane == 12
        for planes in (5, 0):
            with pytest.raises(ConfigurationError, match="does not divide"):
                apply_axis(cfg, "orbits", planes)


class TestCliRun:
    def test_run_writes_outputs_and_exits_zero(self, config_file, output_root,
                                               capsys):
        rc = main(["run", str(config_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final_accuracy" in out
        outdir = output_root / "out"
        stems = sorted(p.name for p in outdir.iterdir())
        assert any(s.endswith(".trace.txt") for s in stems)
        assert any(s.endswith(".topology.tsv") for s in stems)
        (summary,) = outdir.glob("*.summary.csv")
        assert out == summary.read_text()

    def test_missing_seed_exit_code_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(SMALL_CONFIG.replace("seed = 7\n", ""))
        assert main(["run", str(bad)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_nonexistent_config_exit_code_two(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.ini")]) == 2

    def test_runtime_failure_exit_code_three(self, tmp_path, capsys):
        # valid config whose training diverges to non-finite weights
        text = SMALL_CONFIG.replace(
            "[training]", "[training]\nlearning_rate = 1e80")
        p = tmp_path / "diverge.ini"
        p.write_text(text)
        assert main(["run", str(p)]) == 3
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("settings,first_round", [
        ("learning_rate = 1e80", 4),
        # without L2 the devices overflow at rounds 1 and 2, so the first
        # non-finite round lies inside a tau1 = 2 segment
        ("learning_rate = 1e308\nl2 = 0", 1),
    ])
    def test_divergence_reported_alike_for_every_block_count(
            self, settings, first_round, monkeypatch):
        # the earliest non-finite local round over all devices
        cfg = parse_config_text(SMALL_CONFIG.replace(
            "[training]", f"[training]\n{settings}"))
        messages = set()
        for cpus in (1, 2, 3, 16):
            monkeypatch.setattr(simulation, "_available_cpus", lambda: cpus)
            with pytest.raises(TrainingError) as exc:
                simulation.run_obl(cfg)
            messages.add(str(exc.value))
        assert messages == {
            f"non-finite device parameters at local round {first_round}"}

    def test_byte_identical_reruns(self, config_file, output_root):
        main(["run", str(config_file)])
        trace1 = next((output_root / "out").glob("*.trace.txt")).read_bytes()
        main(["run", str(config_file)])
        trace2 = next((output_root / "out").glob("*.trace.txt")).read_bytes()
        assert trace1 == trace2

    def test_trace_independent_of_blas_threads(self, config_file, tmp_path):
        src = Path(saginfl.__file__).resolve().parents[1]
        digests = set()
        for threads in ("1", "2"):
            root = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, SAGINFL_OUTPUT_ROOT=str(root),
                       PYTHONPATH=os.pathsep.join(
                           [str(src), os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "saginfl.cli", "run",
                            str(config_file)], env=env, check=True,
                           capture_output=True)
            trace = next((root / "out").glob("*.trace.txt"))
            digests.add(hashlib.sha256(trace.read_bytes()).hexdigest())
        assert len(digests) == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity and two CPUs")
    def test_output_independent_of_worker_count(self, config_file, tmp_path):
        # the training loop's device blocks and the bound check's workers
        # are both sized from the CPUs available
        src = Path(saginfl.__file__).resolve().parents[1]
        cpu = min(os.sched_getaffinity(0))
        digests = set()
        for pin in ("", f"os.sched_setaffinity(0, {{{cpu}}})"):
            root = tmp_path / ("one_cpu" if pin else "default")
            script = (f"import os, sys\n{pin}\nfrom saginfl import cli\n"
                      f"sys.exit(cli.main(['run', {str(config_file)!r}]))")
            env = dict(os.environ, SAGINFL_OUTPUT_ROOT=str(root),
                       PYTHONPATH=os.pathsep.join(
                           [str(src), os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-c", script], env=env,
                           check=True, capture_output=True)
            digests.add(tuple(
                hashlib.sha256(next((root / "out").glob(pattern))
                               .read_bytes()).hexdigest()
                for pattern in ("*.trace.txt", "*.summary.csv")))
        assert len(digests) == 1

    def test_validate_ok(self, config_file, capsys):
        assert main(["validate", str(config_file)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("extra, message", [
        ("\n[trainig]\nlearning_rate = 5\n",
         "unknown config section [trainig]"),
        ("label = sub/x\n", LABEL_RULE + "'sub/x'"),
        ("label = " + "a" * 250 + "\n", LABEL_RULE + repr("a" * 250)),
    ], ids=["unknown_section", "label_slash", "label_too_long"])
    def test_validate_rejects_before_any_run(self, tmp_path, output_root,
                                             capsys, extra, message):
        bad = tmp_path / "bad.ini"
        bad.write_text(SMALL_CONFIG + extra)
        assert main(["validate", str(bad)]) == 2
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: {message}\n" * 2
        assert not (output_root / "out").exists()

    def test_config_read_as_utf8_under_an_ascii_locale(self, tmp_path):
        # the C locale, with UTF-8 mode and locale coercion off, makes
        # Python's default encoding ASCII: a non-ASCII comment still runs,
        # to the bytes of a UTF-8 run; a non-ASCII label, which no ASCII
        # file name holds, and a file that is not UTF-8 are config errors
        src = Path(saginfl.__file__).resolve().parents[1]
        utf8 = {"PYTHONUTF8": "1"}
        ascii_c = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}

        def run(name, text, locale):
            config = tmp_path / f"{name}.ini"
            config.write_bytes(text)
            root = tmp_path / f"{name}_{locale['PYTHONUTF8']}"
            env = dict(os.environ, **locale, SAGINFL_OUTPUT_ROOT=str(root),
                       PYTHONPATH=os.pathsep.join(
                           [str(src), os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-m", "saginfl.cli", "run",
                                   str(config)], env=env, capture_output=True)
            return proc, root / "out"

        commented = SMALL_CONFIG.replace(
            "output_dir = out", "output_dir = out ; sortie \u00e9t\u00e9")
        outputs = []
        for locale in (utf8, ascii_c):
            proc, out = run("commented", commented.encode(), locale)
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outputs[0]) == 3
        assert outputs[0] == outputs[1]

        proc, out = run("label", (SMALL_CONFIG + "label = caf\u00e9\n").encode(),
                        ascii_c)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            b"configuration error: [run] label must be")
        assert not out.exists()
        for locale in (utf8, ascii_c):
            proc, out = run("invalid", SMALL_CONFIG.encode() + b"; \xff\n",
                            locale)
            assert proc.returncode == 2
            assert proc.stderr.startswith(
                b"configuration error: cannot read config ")
            assert not out.exists()


class TestCliSweep:
    def test_single_cell(self, config_file, output_root):
        rc = main(["sweep", str(config_file), "--axis", "n_geo",
                   "--values", "2", "--seeds", "7"])
        assert rc == 0
        sweep_dir = output_root / "out" / "sweep_n_geo"
        runs = (sweep_dir / "runs.csv").read_text().strip().split("\n")
        assert len(runs) == 2   # header + one run
        summary = (sweep_dir / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 2

    def test_cross_product_counts_and_order(self, config_file, output_root):
        rc = main(["sweep", str(config_file), "--axis", "n_geo",
                   "--values", "4,2", "--seeds", "3,1"])
        assert rc == 0
        sweep_dir = output_root / "out" / "sweep_n_geo"
        lines = (sweep_dir / "runs.csv").read_text().strip().split("\n")
        assert len(lines) == 5
        cells = [tuple(line.split(",")[1:3]) for line in lines[1:]]
        assert cells == [("2", "1"), ("2", "3"), ("4", "1"), ("4", "3")]
        summary = (sweep_dir / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 3

    def test_string_axis_values(self, config_file, output_root):
        # --values takes the type of the axis's key: sync_algo is a string
        rc = main(["sweep", str(config_file), "--axis", "sync_algo",
                   "--values", "ring,gossip", "--seeds", "7"])
        assert rc == 0
        sweep_dir = output_root / "out" / "sweep_sync_algo"
        with open(sweep_dir / "runs.csv", newline="") as fh:
            runs = list(csv.reader(fh))
        assert [(r[1], r[-1]) for r in runs[1:]] == [("gossip", "ok"),
                                                      ("ring", "ok")]

    def test_numeric_order_and_quoted_error_status(self, tmp_path,
                                                   output_root, monkeypatch):
        config = tmp_path / "ten.ini"
        config.write_text(SMALL_CONFIG.replace("n_sats = 4", "n_sats = 10")
                          .replace("n_air = 8", "n_air = 10")
                          .replace("devices_per_air = 2", "devices_per_air = 1")
                          .replace("global_rounds = 3", "global_rounds = 1"))
        real_run = cli.execute_run

        def failing_cell(cfg, out):
            if cfg.policy.n_geo == 5:
                raise RuntimeError("cell failed, on purpose")
            return real_run(cfg, out)

        monkeypatch.setattr(cli, "execute_run", failing_cell)
        rc = main(["sweep", str(config), "--axis", "n_geo",
                   "--values", "2,5,10", "--seeds", "1"])
        assert rc == 0
        sweep_dir = output_root / "out" / "sweep_n_geo"
        with open(sweep_dir / "runs.csv", newline="") as fh:
            runs = list(csv.reader(fh))
        assert runs[0] == list(cli.RUNS_COLUMNS)
        assert ",".join(runs[0]) == (
            "axis,value,seed,final_accuracy,total_time_s,delta_hat,Delta_hat,"
            "bound_margin,status")
        assert all(len(r) == len(cli.RUNS_COLUMNS) for r in runs)
        assert [r[1] for r in runs[1:]] == ["2", "5", "10"]
        assert [r[-1] for r in runs[1:]] == [
            "ok", "error: cell failed, on purpose", "ok"]
        with open(sweep_dir / "summary.csv", newline="") as fh:
            summary = list(csv.reader(fh))
        assert all(len(r) == len(cli.AGG_COLUMNS) for r in summary)
        assert [(r[1], r[2]) for r in summary[1:]] == [
            ("2", "1"), ("5", "0"), ("10", "1")]

    def test_failed_cells_keep_their_tracebacks(self, tmp_path, output_root):
        # every cell diverges at run time; a later sweep without failures
        # leaves no errors.log behind
        config = tmp_path / "diverge.ini"
        config.write_text(SMALL_CONFIG.replace(
            "[training]", "[training]\nlearning_rate = 1e70"))
        rc = main(["sweep", str(config), "--axis", "n_geo",
                   "--values", "3,2", "--seeds", "1"])
        assert rc == 0
        sweep_dir = output_root / "out" / "sweep_n_geo"
        with open(sweep_dir / "runs.csv", newline="") as fh:
            runs = list(csv.reader(fh))
        assert all(r[-1].startswith("error: non-finite device parameters")
                   for r in runs[1:])
        log = (sweep_dir / "errors.log").read_text()
        headers = re.findall(r"^n_geo=(\d+) seed=(\d+)$", log, re.M)
        assert headers == [("3", "1"), ("2", "1")]
        assert log.count("Traceback (most recent call last):") == 2
        assert log.count("saginfl.errors.TrainingError: non-finite") == 2
        assert "in run_obl" in log
        config.write_text(SMALL_CONFIG)
        assert main(["sweep", str(config), "--axis", "n_geo",
                     "--values", "2", "--seeds", "1"]) == 0
        assert not (sweep_dir / "errors.log").exists()

    def test_progress_line_per_cell_on_stderr(self, config_file, output_root,
                                              monkeypatch, capsys):
        # one line per finished cell, in run order, failed cells included;
        # stdout keeps its one closing line
        real_run = cli.execute_run

        def failing_cell(cfg, out):
            if cfg.policy.n_geo == 3 and cfg.run.seed == 1:
                raise RuntimeError("cell failed, on purpose")
            return real_run(cfg, out)

        monkeypatch.setattr(cli, "execute_run", failing_cell)
        rc = main(["sweep", str(config_file), "--axis", "n_geo",
                   "--values", "3,2", "--seeds", "1,0"])
        assert rc == 0
        out, err = capsys.readouterr()
        progress = [re.fullmatch(
            r"\[(\d)/4\] n_geo=(\d) seed=(\d) (ok|error) \d+\.\d\d s",
            line) for line in err.splitlines()]
        assert all(progress)
        assert [m.groups() for m in progress] == [
            ("1", "3", "1", "error"), ("2", "3", "0", "ok"),
            ("3", "2", "1", "ok"), ("4", "2", "0", "ok")]
        sweep_dir = output_root / "out" / "sweep_n_geo"
        assert out == (f"wrote {sweep_dir / 'runs.csv'} and "
                       f"{sweep_dir / 'summary.csv'} (4 runs)\n")

    def test_bad_axis_exit_two(self, config_file):
        assert main(["sweep", str(config_file), "--axis", "n_geo",
                     "--values", "two", "--seeds", "1"]) == 2

    def test_bad_cell_fails_before_any_cell_runs(self, config_file,
                                                 output_root, capsys):
        # n_geo = 9 exceeds the four satellites; n_geo = 2 cells come first
        rc = main(["sweep", str(config_file), "--axis", "n_geo",
                   "--values", "2,9", "--seeds", "0,1"])
        assert rc == 2
        assert "n_geo" in capsys.readouterr().err
        assert not (output_root / "out").exists()

    def test_cell_label_too_long_fails_before_any_cell_runs(
            self, tmp_path, output_root, capsys):
        # the base stem takes 249 of 255 bytes; the cell label adds _n_geo-2
        base = tmp_path / "long.ini"
        base.write_text(SMALL_CONFIG + "label = " + "a" * 222 + "\n")
        assert main(["validate", str(base)]) == 0
        rc = main(["sweep", str(base), "--axis", "n_geo", "--values", "2",
                   "--seeds", "7"])
        assert rc == 2
        assert LABEL_RULE + repr("a" * 222 + "_n_geo-2") in capsys.readouterr().err
        assert not (output_root / "out").exists()

    @pytest.mark.parametrize("flag, values, seeds", [
        ("--values", "2,3,2", "1"), ("--seeds", "2", "1,0,1")])
    def test_repeated_value_or_seed_rejected(self, config_file, output_root,
                                             capsys, flag, values, seeds):
        rc = main(["sweep", str(config_file), "--axis", "n_geo",
                   "--values", values, "--seeds", seeds])
        assert rc == 2
        assert f"{flag} repeats" in capsys.readouterr().err
        assert not (output_root / "out").exists()

    def test_three_values_five_seeds_is_fifteen_runs(self, config_file,
                                                     output_root):
        rc = main(["sweep", str(config_file), "--axis", "n_geo",
                   "--values", "2,3,4", "--seeds", "1,2,3,4,5"])
        assert rc == 0
        sweep_dir = output_root / "out" / "sweep_n_geo"
        runs = (sweep_dir / "runs.csv").read_text().strip().split("\n")
        assert len(runs) == 1 + 15
        summary = (sweep_dir / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 1 + 3
        traces = list(sweep_dir.glob("*.trace.txt"))
        assert len(traces) == 15

    def test_every_cell_writes_its_own_files(self, config_file, output_root):
        rc = main(["sweep", str(config_file), "--axis", "tau2",
                   "--values", "1,2,3", "--seeds", "0,1"])
        assert rc == 0
        sweep_dir = output_root / "out" / "sweep_tau2"
        for suffix in (".trace.txt", ".summary.csv", ".topology.tsv"):
            assert len(list(sweep_dir.glob(f"*{suffix}"))) == 3 * 2
        assert (sweep_dir / "run_tau2-2_cnasa-2_seed1.trace.txt").exists()


class TestTraceContent:
    def test_trace_sections_present(self, config_file, output_root):
        main(["run", str(config_file)])
        text = next((output_root / "out").glob("*.trace.txt")).read_text()
        for section in ("[config]", "[accuracy]", "[time]", "[partition]",
                        "[assignment]", "[divergence]", "[bound]",
                        "[commlog]"):
            assert section in text

    def test_summary_columns(self, config_file, output_root):
        main(["run", str(config_file)])
        csv = next((output_root / "out").glob("*.summary.csv")).read_text()
        header = csv.split("\n")[0]
        assert header == ("policy,n_geo,seed,final_accuracy,total_time_s,"
                          "delta_hat,Delta_hat,bound_margin")

    def test_mlp_run_skips_diagnostics(self, tmp_path, output_root):
        text = SMALL_CONFIG.replace("[training]",
                                    "[training]\nlearner = mlp")
        p = tmp_path / "mlp.ini"
        p.write_text(text)
        assert main(["run", str(p)]) == 0
        csv = next((output_root / "out").glob("*.summary.csv")).read_text()
        assert "nan" in csv.split("\n")[1]


def test_package_all_resolves():
    assert len(set(saginfl.__all__)) == len(saginfl.__all__)
    for name in saginfl.__all__:
        assert hasattr(saginfl, name), name


# another valid value for every key: the first candidate that differs from
# the base value, valid on each variant of KEYS_CONFIG
OTHER_VALUES = {
    ("topology", "kind"): ("walker", "single"),
    ("topology", "n_sats"): (5,),
    ("topology", "altitude_km"): (500.0,),
    ("topology", "n_air"): (6,),
    ("topology", "devices_per_air"): (1,),
    ("topology", "n_planes"): (2,),
    ("topology", "sats_per_plane"): (3,),
    ("topology", "inclination_deg"): (60.0,),
    ("topology", "air_per_cell"): (2,),
    ("topology", "sg_rate_bps"): (3e9,),
    ("topology", "sg_prop_s"): (0.02,),
    ("topology", "ga_rate_bps"): (16e9,),
    ("topology", "ga_prop_s"): (0.01,),
    ("topology", "as_rate_bps"): (3e9,),
    ("topology", "as_prop_s"): (0.01,),
    ("topology", "ss_rate_bps"): (15e9,),
    ("topology", "ss_prop_s"): (0.04,),
    ("data", "n_classes"): (4,),
    ("data", "classes_per_device"): (3,),
    ("data", "samples_per_device"): (12,),
    ("data", "feature_dim"): (10,),
    ("data", "test_samples"): (200,),
    ("data", "blob_scale"): (3.0,),
    ("data", "class_scale_min"): (0.7,),
    ("data", "class_scale_max"): (2.0,),
    ("data", "geo_bin_deg"): (30.0,),
    ("training", "learning_rate"): (0.25,),
    ("training", "l2"): (1e-2,),
    ("training", "tau1"): (3,),
    ("training", "tau2"): (3,),
    ("training", "global_rounds"): (2,),
    ("training", "learner"): ("mlp", "softmax"),
    ("training", "hidden_dim"): (8,),
    ("training", "init_scale"): (0.5,),
    ("training", "batch_size"): (5,),
    ("training", "flops_model"): (2e6,),
    ("training", "flops_device"): (1e12,),
    ("training", "flops_air"): (1e12,),
    ("training", "flops_satellite"): (1e12,),
    ("training", "bits_per_param"): (16,),
    ("policy", "name"): ("gdo", "cnasa"),
    ("policy", "n_geo"): (3,),
    ("run", "seed"): (8,),
    ("run", "output_dir"): ("elsewhere",),
    ("run", "sync_algo"): ("gossip",),
    ("run", "label"): ("other",),
}
PATH_KEYS = {("run", "output_dir"), ("run", "label")}
# SMALL_CONFIG with a tiny Walker's keys set too, read when kind = walker
KEYS_CONFIG = SMALL_CONFIG.replace(
    "devices_per_air = 2",
    "devices_per_air = 2\nn_planes = 3\nsats_per_plane = 4\nair_per_cell = 1")


def run_outputs(cfg, root, monkeypatch):
    """The paths ``cli.execute_run`` writes for ``cfg`` under ``root``, and
    each file's text by suffix; a trace keeps only what follows
    ``[config]``."""
    monkeypatch.setenv("SAGINFL_OUTPUT_ROOT", str(root))
    cli.execute_run(cfg, cli.output_dir(cfg))
    paths = sorted(root.rglob("*.*"))
    texts = {path.suffixes[-2]: path.read_text() for path in paths}
    texts[".trace"] = texts[".trace"].split("\n\n", 2)[2]
    return [path.relative_to(root) for path in paths], texts


@pytest.mark.parametrize("old, new", [
    ("", ""), ("kind = single", "kind = walker"),
    ("[training]", "[training]\nlearner = mlp"),
    ("name = cnasa", "name = gdo")], ids=["single", "walker", "mlp", "gdo"])
def test_every_key_has_an_effect_unless_unread(old, new, tmp_path,
                                               monkeypatch):
    base = parse_config_text(KEYS_CONFIG.replace(old, new))
    keys = {(name, f.name) for name in ("topology", "data", "training",
                                        "policy", "run")
            for f in fields(getattr(base, name))}
    assert keys == set(OTHER_VALUES)
    unread = unread_keys(base)
    paths, texts = run_outputs(base, tmp_path / "base", monkeypatch)
    for i, ((section, key), candidates) in enumerate(OTHER_VALUES.items()):
        value = next(v for v in candidates
                     if v != getattr(getattr(base, section), key))
        cfg = validate_config(replace(base, **{
            section: replace(getattr(base, section), **{key: value})}))
        got_paths, got = run_outputs(cfg, tmp_path / str(i), monkeypatch)
        if (section, key) in PATH_KEYS:
            assert got_paths != paths and got == texts, key
        elif (section, key) in unread:
            assert got_paths == paths and got == texts, key
        else:
            assert any(got[s] != texts[s] for s in (".trace", ".topology")), key
