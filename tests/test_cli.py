"""Command-line interface tests: commands, exit codes, determinism."""

import json
import re
import time
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from diffmix import validate
from diffmix.archive import read_container, write_container
from diffmix.cli import (SETTINGS, _build_parser, _load_config_file,
                         _resolve_settings, main)
from diffmix.store import PosteriorDraws


# wall-time bound of the 2,000-time simulate, fit and summarize; they
# take about 5 s on a 2-core host
LONG_GRID_SECONDS = 30.0

README = Path(__file__).resolve().parents[1] / "README.md"

# each setting with its own flag: a text its parser takes and one it
# refuses; --tie-c is a switch and takes no text
FLAG_TEXTS = [
    ("burn_in", "3", "2.5"), ("iters", "7", "2.5"), ("thin", "2", "two"),
    ("seed", "4", "1.0"), ("chains", "2", "0"), ("slice_eta", "0.4", "x"),
    ("trans_slice_eta", "0.3", "x"), ("fix_theta", "1.5", "1,5"),
    ("fix_c", "0.5", "x"), ("tie_c_to_theta", "on", "maybe"),
    ("m_cap", "99", "2.5"), ("stick_kind", "pitman_yor", "gem"),
    ("sigma", "0.25", "x"),
]


def run_cli(*argv):
    return main(list(argv))


def with_nan(x):
    """A copy of x with its first entry NaN."""
    x = x.copy()
    x.flat[0] = np.nan
    return x


class TestSimulate:
    def test_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        assert run_cli("simulate", "--times", "100", "--per-time", "1",
                       "--t-max", "10", "--seed", "7", "--out", str(out)) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "time,value"
        assert len(rows) == 101

    def test_multiple_per_time(self, tmp_path):
        out = tmp_path / "toy.csv"
        run_cli("simulate", "--times", "100", "--per-time", "5",
                "--t-max", "10", "--seed", "7", "--out", str(out))
        assert len(out.read_text().splitlines()) == 501

    def test_byte_identical_under_seed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("simulate", "--times", "30", "--seed", "3", "--out", str(a))
        run_cli("simulate", "--times", "30", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_args_usage_error(self, tmp_path, capsys):
        for flag, value, named in (("--times", "0", "n_times"),
                                   ("--t-max", "nan", "t_max"),
                                   ("--t-max", "inf", "t_max"),
                                   ("--seed", "-1", "seed")):
            code = run_cli("simulate", flag, value, "--out",
                           str(tmp_path / "x.csv"))
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and named in err


class TestFit:
    def fit_args(self, data, out, *extra):
        return ["fit", str(data), "--out", str(out), "--iters", "30",
                "--burn-in", "10", "--thin", "3", "--seed", "1", *extra]

    @pytest.fixture
    def dataset(self, tmp_path):
        path = tmp_path / "toy.csv"
        run_cli("simulate", "--times", "8", "--per-time", "2",
                "--t-max", "2", "--seed", "5", "--out", str(path))
        return path

    def test_fit_writes_draws(self, dataset, tmp_path):
        out = tmp_path / "draws.npz"
        assert run_cli(*self.fit_args(dataset, out)) == 0
        draws = PosteriorDraws.load(out)
        assert draws.n_draws == 10

    def test_fixed_hyperparameters(self, dataset, tmp_path):
        out = tmp_path / "draws.npz"
        assert run_cli(*self.fit_args(dataset, out, "--fix-theta", "1",
                                      "--fix-c", "0.5")) == 0
        draws = PosteriorDraws.load(out)
        assert np.all(draws.theta == 1.0)
        assert np.all(draws.c == 0.5)

    def test_unsorted_times_exit_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,value\n1.0,0.5\n0.5,0.2\n")
        code = run_cli("fit", str(bad), "--out", str(tmp_path / "d.npz"),
                       "--iters", "5", "--burn-in", "1")
        assert code == 2

    def test_near_duplicate_times_exit_three(self, tmp_path, capsys):
        data = tmp_path / "near.csv"
        data.write_text("time,value\n0,0.5\n1e-9,0.2\n1,0.1\n2,0.3\n")
        code = run_cli("fit", str(data), "--out", str(tmp_path / "d.npz"),
                       "--iters", "5", "--burn-in", "1")
        assert code == 3
        err = capsys.readouterr().err
        assert "gap 1e-09 between consecutive observation times" in err
        assert "merge near-duplicate times" in err

    def test_small_c_tau_names_c(self, tmp_path, capsys):
        # the gaps are ordinary; the series index needs c tau larger
        data = tmp_path / "toy.csv"
        run_cli("simulate", "--times", "8", "--per-time", "2", "--t-max",
                "2", "--seed", "1", "--out", str(data))
        code = run_cli("fit", str(data), "--out", str(tmp_path / "d.npz"),
                       "--iters", "5", "--burn-in", "1", "--fix-c", "0.001")
        assert code == 3
        err = capsys.readouterr().err
        assert "gap 0.285714 between consecutive observation times gives " \
            "c tau = 0.000285714 at a + b = " in err
        assert "merge near-duplicate times, or raise c (--fix-c, " \
            "--c-prior)" in err

    def test_huge_theta_names_a_plus_b(self, tmp_path, capsys):
        # log Gamma(a + b) overflows: refused before any inf - inf
        data = tmp_path / "toy.csv"
        run_cli("simulate", "--times", "8", "--per-time", "2", "--t-max",
                "2", "--seed", "1", "--out", str(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("fit", str(data), "--out", str(tmp_path / "d.npz"),
                           "--burn-in", "2", "--iters", "3",
                           "--fix-theta", "1e308")
        assert code == 3
        err = capsys.readouterr().err
        assert "at a + b = 1e+308, at which log Gamma(a + b) leaves double " \
            "range; lower theta" in err

    def test_large_theta_names_theta(self, tmp_path, capsys):
        # an ordinary gap: the series mean is large because a + b is
        data = tmp_path / "toy.csv"
        run_cli("simulate", "--times", "8", "--per-time", "2", "--t-max",
                "2", "--seed", "1", "--out", str(data))
        code = run_cli("fit", str(data), "--out", str(tmp_path / "d.npz"),
                       "--burn-in", "2", "--iters", "3", "--fix-theta", "1e6")
        assert code == 3
        err = capsys.readouterr().err
        assert "at a + b = 1e+06, an a + b too large to resolve" in err
        assert "lower theta (--fix-theta, --theta-prior)" in err
        assert "too small" not in err and "near-duplicate" not in err

    def test_huge_c_tau_fits_without_warnings(self, tmp_path):
        # e^{-c tau} = 0 puts all mass on d = 0; the suite turns a
        # RuntimeWarning into an error
        data = tmp_path / "toy.csv"
        run_cli("simulate", "--times", "8", "--per-time", "2", "--t-max",
                "2", "--seed", "1", "--out", str(data))
        out = tmp_path / "d.npz"
        assert run_cli("fit", str(data), "--out", str(out), "--burn-in", "2",
                       "--iters", "3", "--fix-c", "1e308") == 0
        assert np.all(PosteriorDraws.load(out).c == 1e308)

    def test_negative_seed_usage_error(self, dataset, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed=-1\n")
        for extra in (("--seed", "-1"), ("--config", str(config))):
            code = run_cli("fit", str(dataset), "--out",
                           str(tmp_path / "d.npz"), *extra)
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and "seed" in err

    def test_missing_file_exit_two(self, tmp_path):
        code = run_cli("fit", str(tmp_path / "absent.csv"), "--out",
                       str(tmp_path / "d.npz"))
        assert code == 2

    def test_overflowing_observation_exit_two(self, dataset, tmp_path,
                                              capsys):
        # 1e160 squared overflows; the atom updates would turn it to NaN
        big = tmp_path / "big.csv"
        big.write_text(dataset.read_text() + "2.0,1e160\n")
        out = tmp_path / "d.npz"
        assert run_cli(*self.fit_args(big, out)) == 2
        err = capsys.readouterr().err
        assert "largest |value| 1e+160 at time 2" in err
        assert not out.exists()

    def test_far_outlier_fits(self, dataset, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text(dataset.read_text() + "2.0,1e153\n")
        out = tmp_path / "d.npz"
        assert run_cli(*self.fit_args(big, out)) == 0
        draws = PosteriorDraws.load(out)
        assert np.all(np.isfinite(draws.theta))
        inside = np.arange(draws.atom_mean.shape[1]) < draws.m[:, None]
        assert np.all(np.isfinite(draws.atom_mean[inside]))
        assert np.all(np.isfinite(draws.atom_prec[inside]))

    def test_truncation_cap_exit_three(self, dataset, tmp_path, capsys):
        assert run_cli(*self.fit_args(dataset, tmp_path / "d.npz",
                                      "--m-cap", "3")) == 3
        err = capsys.readouterr().err
        assert "exceeds cap 3" in err
        assert "--m-cap (m_cap) or --eta (slice_eta)" in err

    def test_constant_data_fits_and_summarizes(self, tmp_path):
        data = tmp_path / "const.csv"
        data.write_text("time,value\n" + "".join(
            f"{t},1.5\n" for t in range(6)))
        draws = tmp_path / "draws.npz"
        assert run_cli(*self.fit_args(data, draws)) == 0
        assert run_cli("summarize", str(draws), "--out-prefix",
                       str(tmp_path / "s"), "--data", str(data)) == 0

    def test_bad_flag_exit_one(self, dataset, tmp_path):
        code = run_cli("fit", str(dataset), "--out",
                       str(tmp_path / "d.npz"), "--theta-prior", "nope")
        assert code == 1

    @pytest.mark.parametrize("flag, text, message", [
        ("--centering", "1,2,3", "expects MEAN0,PSCALE,SHAPE,RATE"),
        ("--centering", "0,x,10,1", "cannot parse '0,x,10,1'"),
        ("--c-prior", "1", "expects SHAPE,RATE"),
        ("--theta-prior", "1,2,3", "expects SHAPE,RATE"),
    ])
    def test_float_list_parse_errors_exit_one(self, dataset, tmp_path, capsys,
                                              flag, text, message):
        assert run_cli("fit", str(dataset), "--out", str(tmp_path / "d.npz"),
                       flag, text) == 1
        err = capsys.readouterr().err
        assert flag in err and message in err

    @pytest.mark.parametrize("flags, named", [
        (("--stick", "pitman-yor", "--sigma", "1.5"), "sigma"),
        (("--centering", "0,-1,10,1"), "precision_scale"),
        (("--centering", "0,inf,10,1"), "precision_scale"),
        (("--centering", "inf,0.001,10,1"), "mean0"),
        (("--fix-theta", "inf"), "fix_theta"),
        (("--fix-c", "inf"), "fix_c"),
        (("--theta-prior", "1,inf"), "rate"),
        (("--c-prior", "inf,1"), "shape"),
    ], ids=[f"flags{i}" for i in range(8)])
    def test_invalid_law_values_exit_one(self, dataset, tmp_path, capsys,
                                         flags, named):
        assert run_cli("fit", str(dataset), "--out", str(tmp_path / "d.npz"),
                       *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and named in err

    def test_sigma_needs_pitman_yor(self, dataset, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("sigma=0.3\n")
        for extra in (("--stick", "dp", "--sigma", "5"), ("--sigma", "0.3"),
                      ("--config", str(config))):
            out = tmp_path / "d.npz"
            assert run_cli("fit", str(dataset), "--out", str(out),
                           *extra) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: sigma ")
            assert "--stick pitman-yor" in err
            assert not out.exists()

    @pytest.mark.parametrize("workers", ["-3", "0", "1.5"])
    def test_workers_below_one_exit_one(self, dataset, tmp_path, capsys,
                                        workers):
        assert run_cli(*self.fit_args(dataset, tmp_path / "d.npz",
                                      "--workers", workers,
                                      "--chains", "2")) == 1
        assert f"bad value for workers: '{workers}'" in \
            capsys.readouterr().err

    def test_telemetry_written(self, dataset, tmp_path):
        out = tmp_path / "draws.npz"
        tele = tmp_path / "telemetry.log"
        run_cli(*self.fit_args(dataset, out, "--telemetry", str(tele)))
        lines = tele.read_text().splitlines()
        assert len(lines) == 40
        assert lines[0].startswith("sweep=1 m=")
        assert "loglik=" in lines[-1]

    def test_multiple_chains(self, dataset, tmp_path):
        out = tmp_path / "draws.npz"
        assert run_cli(*self.fit_args(dataset, out, "--chains", "2")) == 0
        for i in range(2):
            chain = tmp_path / f"draws.chain{i}.npz"
            assert chain.exists()
            PosteriorDraws.load(chain)

    def test_config_file_and_override(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iters=6\nthin=2\nburn_in=2\nseed=9\n")
        out = tmp_path / "draws.npz"
        code = run_cli("fit", str(dataset), "--out", str(out),
                       "--config", str(cfg), "--thin", "3")
        assert code == 0
        draws = PosteriorDraws.load(out)
        assert draws.n_draws == 2  # 6 post-burn-in sweeps, thin 3 wins

    def test_unknown_config_key_exit_one(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code = run_cli("fit", str(dataset), "--out",
                       str(tmp_path / "d.npz"), "--config", str(cfg))
        assert code == 1

    @pytest.mark.parametrize("text, named", [
        ('{"burn_in": 2.7}', "burn_in: 2.7"), ('{"iters": true}', "iters: True"),
        ('{"tie_c_to_theta": 5}', "tie_c_to_theta: 5"),
        ("tie_c_to_theta=maybe", "tie_c_to_theta: 'maybe'"),
        ("seed=1.0", "seed: '1.0'"),
    ], ids=["json_float_int", "json_bool_int", "json_int_bool",
            "line_word_bool", "line_float_int"])
    def test_config_value_the_flag_refuses_exit_one(self, dataset, tmp_path,
                                                    capsys, text, named):
        # a config file value parses as the same text on its flag would
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "d.npz"
        capsys.readouterr()
        assert run_cli("fit", str(dataset), "--out", str(out),
                       "--config", str(cfg)) == 1
        assert f"bad value for {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("word, flag", [
        ("1", True), ("true", True), ("Yes", True), ("ON", True),
        ("0", False), ("false", False), ("no", False), ("Off", False),
    ])
    def test_config_bool_words(self, tmp_path, word, flag):
        lines, js = tmp_path / "run.cfg", tmp_path / "run.json"
        lines.write_text(f"tie_c_to_theta={word}\nburn_in=3\n")
        js.write_text(json.dumps({"tie_c_to_theta": word, "burn_in": 3}))
        for path in (lines, js):
            assert _load_config_file(path) == {"tie_c_to_theta": flag,
                                               "burn_in": 3}
        js.write_text(json.dumps({"tie_c_to_theta": flag}))
        assert _load_config_file(js) == {"tie_c_to_theta": flag}

    def test_flag_texts_cover_every_flag(self):
        assert [key for key, _, _ in FLAG_TEXTS] == \
            [key for key, (flag, _, _) in SETTINGS.items() if flag]

    @pytest.mark.parametrize("key, good, bad", FLAG_TEXTS,
                             ids=[key for key, _, _ in FLAG_TEXTS])
    def test_flag_and_file_parse_alike(self, tmp_path, capsys, key, good,
                                       bad):
        flag = SETTINGS[key][0]
        switch = key == "tie_c_to_theta"
        lines, js = tmp_path / "run.cfg", tmp_path / "run.json"

        def settings(*extra):
            return _resolve_settings(_build_parser().parse_args(
                ["fit", "data.csv", "--out", "d.npz", *extra]))

        lines.write_text(f"{key}={good}\n")
        js.write_text(json.dumps({key: good}))
        from_flag = settings(*((flag,) if switch else (flag, good)))
        assert key in from_flag
        assert settings("--config", str(lines)) == from_flag
        assert settings("--config", str(js)) == from_flag

        lines.write_text(f"{key}={bad}\n")
        js.write_text(json.dumps({key: bad}))
        forms = [("--config", str(lines)), ("--config", str(js))]
        for extra in forms + ([] if switch else [(flag, bad)]):
            # refused before the absent data file is read
            assert run_cli("fit", str(tmp_path / "absent.csv"), "--out",
                           str(tmp_path / "d.npz"), *extra) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ")
            assert f"bad value for {key}: '{bad}'" in err

    def test_readme_lists_every_config_key(self):
        section = README.read_text(encoding="utf-8").split(
            "### Configuration files")[1]
        listed = re.search(r"keys:\s*`([^`]*)`", section).group(1)
        assert sorted(key.strip() for key in listed.split(",")) == \
            sorted(SETTINGS)

    def test_resume_matches_straight_run(self, dataset, tmp_path):
        out1 = tmp_path / "a.npz"
        cp = tmp_path / "cp.npz"
        run_cli(*self.fit_args(dataset, out1, "--checkpoint", str(cp),
                               "--checkpoint-every", "23"))
        out2 = tmp_path / "b.npz"
        run_cli(*self.fit_args(dataset, out2, "--resume", str(cp)))
        assert out1.read_bytes() == out2.read_bytes()


    def test_iters_below_thin_exit_one(self, dataset, tmp_path, capsys):
        out = tmp_path / "d.npz"
        assert run_cli("fit", str(dataset), "--out", str(out), "--iters", "3",
                       "--thin", "5") == 1
        assert "thin" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (("--checkpoint", "CP", "--checkpoint-every", "0"),
         "--checkpoint-every must be"),
        (("--checkpoint", "CP"), "--checkpoint-every go together"),
        (("--checkpoint-every", "5"), "--checkpoint and"),
    ])
    def test_checkpoint_flags_exit_one(self, dataset, tmp_path, capsys,
                                       flags, named):
        cp = tmp_path / "cp.npz"
        flags = [str(cp) if f == "CP" else f for f in flags]
        assert run_cli(*self.fit_args(dataset, tmp_path / "d.npz",
                                      *flags)) == 1
        assert named in capsys.readouterr().err
        assert not cp.exists()

    def test_resume_on_other_dataset_exit_two(self, dataset, tmp_path,
                                              capsys):
        cp = tmp_path / "cp.npz"
        run_cli(*self.fit_args(dataset, tmp_path / "a.npz", "--checkpoint",
                               str(cp), "--checkpoint-every", "23"))
        other = tmp_path / "other.csv"
        run_cli("simulate", "--times", "9", "--per-time", "2",
                "--t-max", "2", "--seed", "5", "--out", str(other))
        assert run_cli(*self.fit_args(other, tmp_path / "b.npz",
                                      "--resume", str(cp))) == 2
        assert "another dataset" in capsys.readouterr().err

    def test_version_one_checkpoint_exit_two(self, dataset, tmp_path,
                                             capsys):
        cp = tmp_path / "cp.npz"
        write_container(cp, {"format": "diffmix-checkpoint", "version": 1,
                             "n_snapshots": 0}, {})
        assert run_cli(*self.fit_args(dataset, tmp_path / "d.npz",
                                      "--resume", str(cp))) == 2
        assert "version" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("trans_o", None), ("draws_sticks", None), ("mh", None),
        ("mh", {"bogus": 1}), ("rng_state", {"x": 1}), ("sweep", "abc"),
        ("m", 3.7), ("theta", -1.0),
    ], ids=["trans_o", "draws_sticks", "mh", "mh_fields", "rng_state",
            "sweep", "m", "theta"])
    def test_malformed_checkpoint_exit_two(self, dataset, tmp_path, capsys,
                                           key, value):
        # re-zipped without one array or meta key (value None), or with
        # one meta value rewritten
        cp, bad = tmp_path / "cp.npz", tmp_path / "bad.npz"
        run_cli(*self.fit_args(dataset, tmp_path / "a.npz", "--checkpoint",
                               str(cp), "--checkpoint-every", "23"))
        with zipfile.ZipFile(cp) as src, zipfile.ZipFile(bad, "w") as dst:
            for name in src.namelist():
                payload = src.read(name)
                if name == "meta.json":
                    meta = json.loads(payload)
                    if value is None:
                        meta.pop(key, None)
                    else:
                        meta[key] = value
                    payload = json.dumps(meta).encode()
                if name != key + ".npy":
                    dst.writestr(name, payload)
        capsys.readouterr()
        assert run_cli(*self.fit_args(dataset, tmp_path / "b.npz",
                                      "--resume", str(bad))) == 2
        err = capsys.readouterr().err
        assert (f"lacks {key}" if value is None else f"meta {key} = ") in err

    def resume_edited(self, dataset, tmp_path, edit, every, *flags):
        # fit with a checkpoint every `every` sweeps, rewrite the checkpoint
        # through edit(meta, arrays) and resume from it; the exit code, and
        # whether the resumed draws equal the straight run's
        cp = tmp_path / "cp.npz"
        straight, resumed = tmp_path / "a.npz", tmp_path / "b.npz"
        run_cli(*self.fit_args(dataset, straight, "--checkpoint", str(cp),
                               "--checkpoint-every", every, *flags))
        with zipfile.ZipFile(cp) as zf:
            names = [n[:-4] for n in zf.namelist() if n.endswith(".npy")]
        meta, arrays = read_container(cp, "diffmix-checkpoint", 3, names)
        edit(meta, arrays)
        write_container(cp, meta, arrays)
        code = run_cli(*self.fit_args(dataset, resumed, "--resume", str(cp),
                                      *flags))
        return code, code == 0 and straight.read_bytes() == resumed.read_bytes()

    @pytest.mark.parametrize("member, edit", [
        ("s", lambda arrays, m: arrays["s"][:3]),
        ("s", lambda arrays, m: np.full_like(arrays["s"], m)),
        ("u", lambda arrays, m: arrays["u"][:3]),
        ("u", lambda arrays, m: np.full_like(arrays["u"], 0.9)),
        ("sticks", lambda arrays, m: arrays["sticks"][:, :-1]),
        ("trans_d", lambda arrays, m: arrays["trans_d"][:, :-1]),
        ("trans_d", lambda arrays, m: arrays["trans_d"] + 0.5),
        ("sticks", lambda arrays, m: np.full_like(arrays["sticks"], 1.5)),
        ("sticks", lambda arrays, m: with_nan(arrays["sticks"])),
        ("trans_d", lambda arrays, m: arrays["trans_d"] - 10**6),
        ("trans_k", lambda arrays, m: arrays["trans_k"] + 5),
        ("atoms", lambda arrays, m: -arrays["atoms"]),
        ("trans_o", lambda arrays, m: np.full_like(arrays["trans_o"], 5.0)),
    ], ids=["s_length", "s_label_above_m", "u_length", "u_above_psi",
            "sticks_columns", "trans_d_columns", "trans_d_reals",
            "sticks_above_one", "sticks_one_nan", "trans_d_negative",
            "trans_k_above_d", "atoms_negated", "trans_o_above_g"])
    def test_checkpoint_state_arrays_checked_exit_two(self, dataset, tmp_path,
                                                      capsys, member, edit):
        # 16 observations; one state array rewritten to fit neither the
        # dataset nor the stored m, or to break a value invariant of the
        # chain (u = 0.9 lies above every psi, o = 5 above every g(d)),
        # is named; RuntimeWarnings are errors here, so none is raised
        def rewrite(meta, arrays):
            arrays[member] = edit(arrays, meta["m"])
        capsys.readouterr()
        assert self.resume_edited(dataset, tmp_path, rewrite, "23")[0] == 2
        assert f"checkpoint {member} " in capsys.readouterr().err

    @pytest.mark.parametrize("member, edit, named", [
        ("theta", lambda x: x[:3], "theta has float64 shape (3,)"),
        ("m", lambda x: x + 100, "m outside"),
        ("sticks", lambda x: np.full_like(x, np.nan), "sticks outside"),
        ("theta", lambda x: -x, "theta not finite and positive"),
    ], ids=["theta_length", "m_above_width", "sticks_nan", "theta_negative"])
    def test_checkpoint_draws_checked_exit_two(self, dataset, tmp_path,
                                               capsys, member, edit, named):
        # the checkpoint at sweep 23 holds 4 draws; one draws array
        # rewritten to break the draws layout
        def rewrite(meta, arrays):
            arrays["draws_" + member] = edit(arrays["draws_" + member])
        capsys.readouterr()
        assert self.resume_edited(dataset, tmp_path, rewrite, "23")[0] == 2
        err = capsys.readouterr().err
        assert "checkpoint draws: " in err and named in err

    @pytest.mark.parametrize("keep", [None, slice(0, 3), slice(0, 0),
                                      np.r_[0:4, 0:4]],
                             ids=["unchanged", "fewer", "none", "doubled"])
    def test_checkpoint_draw_count_checked_exit_two(self, dataset, tmp_path,
                                                    capsys, keep):
        # the checkpoint at sweep 23 of 10 burn-in + 30 sweeps thinned by
        # 3 has collected (23 - 10) // 3 = 4 draws; its draws arrays cut
        # or doubled along the draws axis hold another count
        def rewrite(meta, arrays):
            assert meta["sweep"] == 23 and arrays["draws_m"].size == 4
            if keep is not None:
                for name in [n for n in arrays if n.startswith("draws_")]:
                    arrays[name] = arrays[name][keep]
        capsys.readouterr()
        code, same = self.resume_edited(dataset, tmp_path, rewrite, "23")
        if keep is None:
            assert code == 0 and same
        else:
            assert code == 2
            held = len(np.arange(4)[keep])
            assert (f"checkpoint holds {held} draws; sweep 23 has "
                    "collected 4") in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        None,
        lambda mh: mh.update(proposals_theta=-1),
        lambda mh: mh.clear(),
        lambda mh: mh.update(proposals_c=float(mh["proposals_c"])),
        lambda mh: mh.update(accepts_theta=mh["proposals_theta"] + 1),
        lambda mh: mh.update(log_step_c=float("inf")),
    ], ids=["unchanged", "negative_count", "empty", "float_count",
            "accepts_above_proposals", "infinite_log_step"])
    def test_checkpoint_mh_checked_exit_two(self, dataset, tmp_path, capsys,
                                            edit):
        # a burn-in checkpoint (sweep 39 of 40, no draws) resumes to the
        # straight run's draws unless its adaptation state is rewritten
        def rewrite(meta, arrays):
            assert arrays["draws_m"].size == 0
            if edit is not None:
                edit(meta["mh"])
        capsys.readouterr()
        code, same = self.resume_edited(dataset, tmp_path, rewrite, "39",
                                        "--burn-in", "40")
        if edit is None:
            assert code == 0 and same
        else:
            assert code == 2
            assert "checkpoint meta mh = " in capsys.readouterr().err

    def test_worker_processes_match_serial(self, dataset, tmp_path):
        # the process-pool path writes the same archives as the serial one
        serial, pooled = tmp_path / "serial.npz", tmp_path / "pooled.npz"
        assert run_cli(*self.fit_args(dataset, serial, "--chains", "2",
                                      "--workers", "1")) == 0
        assert run_cli(*self.fit_args(dataset, pooled, "--chains", "2",
                                      "--workers", "2")) == 0
        for i in range(2):
            a = tmp_path / f"serial.chain{i}.npz"
            b = tmp_path / f"pooled.chain{i}.npz"
            assert a.read_bytes() == b.read_bytes()


class TestSummarize:
    def test_end_to_end(self, tmp_path):
        data = tmp_path / "toy.csv"
        run_cli("simulate", "--times", "6", "--per-time", "2", "--t-max",
                "1.5", "--seed", "2", "--out", str(data))
        draws = tmp_path / "draws.npz"
        run_cli("fit", str(data), "--out", str(draws), "--iters", "20",
                "--burn-in", "5", "--thin", "4", "--seed", "3")
        prefix = tmp_path / "surface"
        assert run_cli("summarize", str(draws), "--out-prefix", str(prefix),
                       "--y-grid=-4:4:41") == 0
        assert (tmp_path / "surface.density.csv").exists()
        assert (tmp_path / "surface.mean.csv").exists()
        assert (tmp_path / "surface.json").exists()

    def test_long_grid_within_time_bound(self, tmp_path):
        # 2,000 times at spacing 0.02: a few sweeps, then a surface of
        # 128 grid points whose densities span more than one block
        data, draws = tmp_path / "long.csv", tmp_path / "draws.npz"
        prefix = tmp_path / "surface"
        start = time.perf_counter()
        assert run_cli("simulate", "--times", "2000", "--t-max", "39.98",
                       "--seed", "4", "--out", str(data)) == 0
        assert run_cli("fit", str(data), "--out", str(draws), "--iters", "4",
                       "--burn-in", "2", "--seed", "1", "--quiet") == 0
        assert run_cli("summarize", str(draws), "--out-prefix", str(prefix),
                       "--data", str(data)) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < LONG_GRID_SECONDS, elapsed
        with open(f"{prefix}.density.csv", "rb") as fh:
            assert sum(1 for _ in fh) == 1 + 2000 * 128
        assert json.loads((tmp_path / "surface.json").read_text())["times"] \
            == PosteriorDraws.load(draws).times.tolist()

    def test_missing_draws_exit_two(self, tmp_path):
        code = run_cli("summarize", str(tmp_path / "absent.npz"),
                       "--out-prefix", str(tmp_path / "s"))
        assert code == 2

    @pytest.fixture
    def draws(self, tmp_path):
        data = tmp_path / "toy.csv"
        run_cli("simulate", "--times", "4", "--seed", "2", "--out", str(data))
        draws = tmp_path / "draws.npz"
        run_cli("fit", str(data), "--out", str(draws), "--iters", "6",
                "--burn-in", "2", "--seed", "3")
        return draws

    def test_bad_grid_exit_one(self, draws, tmp_path, capsys):
        for grid, message in [("oops", "expects LO:HI:COUNT"),
                              ("-inf:inf:10", "finite"),
                              ("-1e308:1e308:10", "finite")]:
            code = run_cli("summarize", str(draws), "--out-prefix",
                           str(tmp_path / "s"), f"--y-grid={grid}")
            assert code == 1
            assert message in capsys.readouterr().err
        assert not (tmp_path / "s.density.csv").exists()

    def test_far_grid_gives_zero_density(self, draws, tmp_path):
        # squared distances past double range: log density -inf, no
        # overflow warning
        prefix = tmp_path / "far"
        assert run_cli("summarize", str(draws), "--out-prefix", str(prefix),
                       "--y-grid=-1e300:1e300:5") == 0
        rows = (tmp_path / "far.density.csv").read_text().splitlines()[1:]
        for row in rows:
            _, y, *dens = map(float, row.split(","))
            assert (max(dens) == 0.0) == (y != 0.0)

    @pytest.mark.parametrize("name", ["atom_mean", "m"])
    def test_malformed_draws_exit_two(self, draws, tmp_path, capsys, name):
        # a NaN atom inside draw 1's own components, or draw 1's m past
        # the padded width
        meta, arrays = read_container(draws, "diffmix-draws", 1, (
            "times", "m", "theta", "c", "sticks", "atom_mean", "atom_prec"))
        width = arrays["sticks"].shape[1]
        if name == "m":
            arrays["m"][1] = width + 1
            message = f"draw 1 (m = {width + 1}): m outside 1..{width}"
        else:
            arrays["atom_mean"][1, 0] = np.nan
            message = f"draw 1 (m = {arrays['m'][1]}): atom_mean not finite"
        bad = tmp_path / "bad.npz"
        write_container(bad, meta, arrays)
        code = run_cli("summarize", str(bad), "--out-prefix",
                       str(tmp_path / "s"))
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("at", [0.0, 0.25, 0.5, 0.75])
    def test_corrupted_member_exit_two(self, draws, tmp_path, capsys, at):
        # one byte of the sticks member's compressed data flipped (its CRC
        # fails) or, at its start, set to 0b111, which opens a deflate
        # block of the reserved type 3 (its decompression fails)
        raw = bytearray(draws.read_bytes())
        with zipfile.ZipFile(draws) as zf:
            info = zf.getinfo("sticks.npy")
        pos = info.header_offset + 30 + len(info.filename) \
            + int(at * info.compress_size)
        raw[pos] = 0b111 if at == 0.0 else raw[pos] ^ 0xFF
        bad = tmp_path / "bad.npz"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run_cli("summarize", str(bad), "--out-prefix",
                       str(tmp_path / "s")) == 2
        assert f"cannot read archive {bad}" in capsys.readouterr().err

    def test_default_grid_from_date_column_data(self, tmp_path):
        data = tmp_path / "dated.csv"
        data.write_text("date,value\n2024-01-01,0.5\n2024-01-03,-0.2\n"
                        "2024-01-04,1.1\n2024-01-08,0.3\n2024-01-09,-0.7\n")
        draws = tmp_path / "draws.npz"
        assert run_cli("fit", str(data), "--out", str(draws), "--iters", "6",
                       "--burn-in", "2", "--seed", "3",
                       "--date-column", "date") == 0
        prefix = tmp_path / "s"
        assert run_cli("summarize", str(draws), "--out-prefix", str(prefix),
                       "--data", str(data), "--date-column", "date") == 0
        assert (tmp_path / "s.density.csv").exists()


class TestValidate:
    def test_subset_passes(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code = run_cli("validate", "--checks",
                       "series_normalization,deficit", "--seed", "0",
                       "--report", str(report))
        assert code == 0
        text = report.read_text()
        assert "check=series_normalization" in text
        assert "failures=0" in text

    def test_unknown_check_exit_one(self):
        for checks in ("bogus", ",", ""):
            assert run_cli("validate", "--checks", checks) == 1, checks

    def test_corrupted_flag_exit_one(self):
        assert run_cli("validate", "--seed", "not-an-int") == 1

    def test_negative_seed_names_seed(self, capsys):
        assert run_cli("validate", "--checks", "deficit", "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "seed" in err

    def test_failing_check_exit_three(self, monkeypatch, capsys, tmp_path):
        failing = lambda rng: [validate._result("deficit_forced", 1.0, 0.5,
                                                "<")]
        monkeypatch.setitem(validate.FULL_CHECKS, "deficit", failing)
        report = tmp_path / "report.txt"
        code = run_cli("validate", "--checks", "deficit", "--report",
                       str(report))
        assert code == 3
        assert "1 validation check(s) failed" in capsys.readouterr().err
        lines = report.read_text().splitlines()
        assert "check=deficit_forced pass=false" in lines[0]
        assert lines[-1].endswith("failures=1")
