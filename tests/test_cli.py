"""Command-line interface tests: commands, exit codes, determinism."""

import json
import time
import zipfile

import numpy as np
import pytest

from diffmix import validate
from diffmix.archive import read_container, write_container
from diffmix.cli import main
from diffmix.gibbs import PosteriorDraws


# wall-time bound of the 2,000-time simulate, fit and summarize; they
# take about 5 s on a 2-core host
LONG_GRID_SECONDS = 30.0


def run_cli(*argv):
    return main(list(argv))


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
        code = run_cli("simulate", "--times", "0", "--out",
                       str(tmp_path / "x.csv"))
        assert code == 1


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

    @pytest.mark.parametrize("flags", [
        ("--stick", "pitman-yor", "--sigma", "1.5"),
        ("--centering", "0,-1,10,1"),
    ])
    def test_invalid_law_values_exit_one(self, dataset, tmp_path, flags):
        assert run_cli("fit", str(dataset), "--out", str(tmp_path / "d.npz"),
                       *flags) == 1

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
    ], ids=["s_length", "s_label_above_m", "u_length", "u_above_psi",
            "sticks_columns", "trans_d_columns", "trans_d_reals"])
    def test_checkpoint_state_arrays_checked_exit_two(self, dataset, tmp_path,
                                                      capsys, member, edit):
        # 16 observations; one state array rewritten to fit neither the
        # dataset nor the stored m, and u = 0.9 lies above every psi
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
        assert run_cli("validate", "--checks", "bogus") == 1

    def test_corrupted_flag_exit_one(self):
        assert run_cli("validate", "--seed", "not-an-int") == 1

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
