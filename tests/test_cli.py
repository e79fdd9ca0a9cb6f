"""Command-line interface tests: commands, exit codes, determinism."""

import numpy as np
import pytest

from diffmix import validate
from diffmix.archive import write_container
from diffmix.cli import main
from diffmix.gibbs import PosteriorDraws


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

    def test_missing_file_exit_two(self, tmp_path):
        code = run_cli("fit", str(tmp_path / "absent.csv"), "--out",
                       str(tmp_path / "d.npz"))
        assert code == 2

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

    def test_missing_draws_exit_two(self, tmp_path):
        code = run_cli("summarize", str(tmp_path / "absent.npz"),
                       "--out-prefix", str(tmp_path / "s"))
        assert code == 2

    def test_bad_grid_exit_one(self, tmp_path):
        data = tmp_path / "toy.csv"
        run_cli("simulate", "--times", "4", "--seed", "2", "--out", str(data))
        draws = tmp_path / "draws.npz"
        run_cli("fit", str(data), "--out", str(draws), "--iters", "6",
                "--burn-in", "2", "--seed", "3")
        code = run_cli("summarize", str(draws), "--out-prefix",
                       str(tmp_path / "s"), "--y-grid", "oops")
        assert code == 1

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
