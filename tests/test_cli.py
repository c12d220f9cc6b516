import argparse
import csv
import io
import math
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc

import pytest

from wkyber.cli import MAX_GRID_POINTS, _parse_grid, build_parser, main


# the flags each verb reads, besides --out; every other flag is refused
READS = {
    "ber": {"--grid", "--trials", "--seed"},
    "codeword-error": {"--grid", "--trials", "--seed"},
    "coeff-dist": {"--snr-lsb"},
    "failure-prob": {"--snr-lsb"},
    "sigma": {"--grid"},
    "ker": {"--params", "--version", "--snr-lsb", "--trials", "--seed",
            "--workers", "--grid"},
    "exchange": {"--params", "--version", "--snr-msb", "--snr-lsb",
                 "--trials", "--seed"},
}
# a value for each flag; all but --grid were once given to every verb, and
# no verb reads --fo-policy
VALUES = {"--params": "512", "--version": "v2", "--snr-msb": "6",
          "--snr-lsb": "-8", "--trials": "3", "--seed": "3", "--out": "-",
          "--fo-policy": "exact", "--workers": "2", "--grid": "0:2:1"}
UNREAD = [pytest.param(verb, flag, id=f"{verb} {flag}")
          for verb in READS for flag in VALUES
          if flag not in ("--out", "--grid") and flag not in READS[verb]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return list(csv.DictReader(io.StringIO(out)))


class TestBer:
    def test_monotone_analytic_and_deterministic(self, capsys):
        args = ("ber", "--trials", "4000", "--seed", "9")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        rows = parse(out1)
        analytic = [float(r["ber_analytic"]) for r in rows]
        assert analytic == sorted(analytic, reverse=True)

    def test_empirical_within_3_sigma(self, capsys):
        _, out, _ = run_cli(capsys, "ber", "--trials", "200000", "--seed", "1")
        for row in parse(out):
            p = float(row["ber_analytic"])
            n = 200000
            se = math.sqrt(p * (1 - p) / n)
            assert abs(float(row["ber_empirical"]) - p) <= 3 * se + 1e-12


class TestCoeffDist:
    def test_columns_and_sums(self, capsys):
        _, out, _ = run_cli(capsys, "coeff-dist", "--snr-lsb", "-13")
        rows = parse(out)
        assert [int(r["offset"]) for r in rows] == list(range(-3, 4))
        assert abs(sum(float(r["channel_pmf"]) for r in rows) - 1) < 1e-9
        assert abs(sum(float(r["cbd2_pmf"]) for r in rows) - 1) < 1e-9
        # binomial PMF confined to -2..2, channel PMF wider at -13 dB
        assert float(rows[0]["cbd2_pmf"]) == 0.0
        assert float(rows[0]["channel_pmf"]) > 0.0

    def test_channel_wider_than_binomial_at_minus13(self, capsys):
        _, out, _ = run_cli(capsys, "coeff-dist", "--snr-lsb", "-13")
        rows = parse(out)
        var_ch = sum(int(r["offset"]) ** 2 * float(r["channel_pmf"]) for r in rows)
        var_b = sum(int(r["offset"]) ** 2 * float(r["cbd2_pmf"]) for r in rows)
        assert var_ch > var_b


class TestCodewordError:
    def test_analytic_decays_and_empirical_tracks(self, capsys):
        _, out, _ = run_cli(capsys, "codeword-error", "--trials", "30000",
                            "--grid", "0:3:1", "--seed", "4")
        rows = parse(out)
        analytic = [float(r["pce_analytic"]) for r in rows]
        assert analytic == sorted(analytic, reverse=True)
        for row in rows:
            p = float(row["pce_analytic"])
            se = math.sqrt(p * (1 - p) / 30000)
            assert abs(float(row["pce_empirical"]) - p) <= 3 * se + 1e-9


class TestSigma:
    def test_monotone_and_crossing_note(self, capsys):
        code, out, err = run_cli(capsys, "sigma", "--grid", "-15:0:1")
        assert code == 0
        rows = parse(out)
        sigmas = [float(r["sigma"]) for r in rows]
        assert sigmas == sorted(sigmas, reverse=True)
        assert "between -5 dB and -4 dB" in err

    def test_grid_configurable(self, capsys):
        _, out, _ = run_cli(capsys, "sigma", "--grid", "-8:-6:1")
        assert [float(r["snr_db"]) for r in parse(out)] == [-8.0, -7.0, -6.0]


class TestKer:
    def test_deterministic_and_shaped(self, capsys):
        args = ("ker", "--trials", "80", "--grid", "10:13:3", "--seed", "2",
                "--workers", "2")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        rows = parse(out1)
        assert [r["version"] for r in rows] == ["v1", "v1"]
        assert all(int(r["failures"]) == 0 for r in rows)
        assert out1.splitlines()[0] == ("snr_msb_db,snr_lsb_db,version,k,"
                                        "trials,failures,ker,ker_lo,ker_hi")
        # zero failures: the upper end leaves 0.025 for 80 clean trials
        assert all(float(r["ker_lo"]) == 0.0 for r in rows)
        assert all(abs(float(r["ker_hi"]) - (1 - 0.025 ** (1 / 80))) < 1e-9
                   for r in rows)

    def test_v2_selectable(self, capsys):
        _, out, _ = run_cli(capsys, "ker", "--trials", "10", "--grid",
                            "10:10:1", "--version", "v2", "--params", "512",
                            "--workers", "1")
        rows = parse(out)
        assert rows[0]["version"] == "v2" and rows[0]["k"] == "2"


class TestExchange:
    def test_default_config_matches(self, capsys):
        code, out, err = run_cli(capsys, "exchange", "--trials", "5")
        assert code == 0
        rows = parse(out)
        assert all(r["outcome"] == "match" for r in rows)
        assert "policy warning" not in err

    def test_warning_line_at_minus3(self, capsys):
        _, out, err = run_cli(capsys, "exchange", "--trials", "2",
                              "--snr-lsb", "-3", "--version", "v2")
        assert "policy warning" in err
        rows = parse(out)
        assert all(r["policy_warnings"] for r in rows)

    def test_v2_fresh_keys_each_session(self, capsys):
        # deterministic per session id but independent across sessions
        _, out, _ = run_cli(capsys, "exchange", "--trials", "3",
                            "--version", "v2")
        rows = parse(out)
        assert len({r["session_id"] for r in rows}) == 3


class TestFailureProb:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "failure-prob")
        assert code == 0
        rows = parse(out)
        by_key = {(r["scheme"], r["k"], r["channel_variant"]): float(r["log2_failure_prob"])
                  for r in rows}
        assert abs(by_key[("kyber768", "3", "")] - (-164)) <= 1.0
        assert abs(by_key[("wkyber-v1", "2", "exact")] - (-219.1)) <= 3.0
        assert abs(by_key[("wkyber-v2", "4", "approx")] - (-105.2)) <= 3.0

    def test_refusal_names_the_tail(self, capsys):
        # from +14 dB the v2 rows' float bound tops 2^-40 of the tail
        code, out, err = run_cli(capsys, "failure-prob", "--snr-lsb", "15")
        assert code == 3 and out == ""
        assert "wkyber-v2 k=" in err and "upper tail: float bound at 2^" in err


class TestGrid:
    def test_points(self):
        # the default grids, unchanged
        assert _parse_grid("0:10:2") == (0, 2, 4, 6, 8, 10)
        assert _parse_grid("-2:4:1") == tuple(range(-2, 5))
        assert _parse_grid("6:15:3") == (6, 9, 12, 15)
        assert _parse_grid("-15:0:1") == tuple(range(-15, 1))
        assert _parse_grid("0:1:0.1") == tuple(i / 10 for i in range(11))
        # a step below the float spacing near start once never advanced; that
        # start is now beyond the SNR range, and is refused without looping
        with pytest.raises(argparse.ArgumentTypeError, match="SNR range"):
            _parse_grid("1e20:1e20:1")
        last = -2000 + (MAX_GRID_POINTS - 1) / 2   # inside the SNR range
        assert len(_parse_grid(f"-2000:{last}:0.5")) == MAX_GRID_POINTS

    def test_fine_steps_stop_at_stop(self):
        # the end slack is at most half a step, so the 1e-9 dB rounding
        # grain's own step neither overshoots stop nor repeats a point, and
        # it still covers the float error of stop - start near 3000 dB
        assert _parse_grid("0:1e-9:1e-9") == (0.0, 1e-9)
        assert _parse_grid("0:1e-8:1e-9") == tuple(i / 1e9 for i in range(11))
        assert _parse_grid("1:1.5:0.25") == (1.0, 1.25, 1.5)
        grid = _parse_grid("3000:3000.000001:1e-9")
        assert len(set(grid)) == len(grid) == 1001
        assert grid[-1] == 3000.000001

    @pytest.mark.parametrize("spec", ["0:1e-8:1e-10", "0:0:1e-12",
                                      "0:1e-9:9.9e-10"])
    def test_steps_below_the_rounding_grain_rejected(self, spec):
        with pytest.raises(argparse.ArgumentTypeError, match="1e-9 dB"):
            _parse_grid(spec)

    @pytest.mark.parametrize("spec", [f"0:{MAX_GRID_POINTS}:1", "0:1:1e-6",
                                      "0:1:1e-12", "-1e308:1e308:1"])
    def test_too_many_points_rejected_before_allocating(self, spec):
        tracemalloc.start()
        try:
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_grid(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_too_many_points_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wkyber.cli", "ber", "--grid", "0:1:1e-12"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "--grid" in proc.stderr
        assert proc.stdout == ""

    def test_fine_step_exit_code(self):
        # a lone point at a step below the grain once printed 1,001 rows
        proc = subprocess.run(
            [sys.executable, "-m", "wkyber.cli", "sigma", "--grid", "0:0:1e-12"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "--grid" in proc.stderr
        assert proc.stdout == ""


class TestPlumbing:
    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wkyber.cli", "ber", "--grid", "nope"],
            capture_output=True)
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"),
                                             ("--trials", "0"),
                                             ("--workers", "0")])
    def test_out_of_range_flag_exit_code(self, flag, value):
        verb = "ker" if flag == "--workers" else "exchange"
        proc = subprocess.run(
            [sys.executable, "-m", "wkyber.cli", verb, flag, value],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and flag in proc.stderr
        assert proc.stdout == ""

    # NaN, -inf and out-of-range SNRs, and non-finite grid fields, are usage
    # errors; the timeout guards the grid cases, which once looped forever
    @pytest.mark.parametrize("argv", [
        pytest.param(("exchange", "--snr-msb=-inf"), id="snr-msb-neg-inf"),
        pytest.param(("exchange", "--snr-msb", "nan"), id="snr-msb-nan"),
        pytest.param(("exchange", "--snr-lsb=-inf"), id="snr-lsb-neg-inf"),
        pytest.param(("coeff-dist", "--snr-lsb", "nan"), id="snr-lsb-nan"),
        pytest.param(("ber", "--grid", "0:nan:1"), id="grid-nan-stop"),
        pytest.param(("sigma", "--grid=-inf:0:1"), id="grid-neg-inf-start"),
        pytest.param(("sigma", "--grid", "0:inf:1"), id="grid-inf-stop"),
        # finite, but Eb/N0 overflows or underflows to 0
        pytest.param(("coeff-dist", "--snr-lsb", "4000"), id="snr-lsb-overflow"),
        pytest.param(("coeff-dist", "--snr-lsb=-4000"), id="snr-lsb-underflow"),
        pytest.param(("ber", "--grid", "0:4000:4000"), id="grid-overflow"),
        pytest.param(("sigma", "--grid=-4000:0:4000"), id="grid-underflow"),
    ])
    def test_non_finite_value_exit_code(self, argv):
        trials = ("--trials", "1") if "--trials" in READS[argv[0]] else ()
        proc = subprocess.run(
            [sys.executable, "-m", "wkyber.cli", *argv, *trials],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        flag = argv[1].split("=")[0]
        assert "Traceback" not in proc.stderr and flag in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("verb, flag", UNREAD)
    def test_unread_flag_is_usage_error(self, capsys, verb, flag):
        # a flag the verb would ignore is refused, naming the flag
        with pytest.raises(SystemExit) as exc:
            main([verb, flag, VALUES[flag]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err

    @pytest.mark.parametrize("verb", sorted(READS))
    def test_each_verb_accepts_what_it_reads(self, verb):
        argv = [verb]
        for flag in sorted(READS[verb] | {"--out"}):
            argv += [flag, VALUES[flag]]
        args = build_parser().parse_args(argv)
        assert args.out == "-"

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_exit_code(self, tmp_path, target):
        # a missing directory, or a directory as the file: refused before
        # the sessions run, not after
        proc = subprocess.run(
            [sys.executable, "-m", "wkyber.cli", "exchange", "--trials", "2",
             "--out", str(tmp_path / target)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "--out" in proc.stderr
        assert proc.stdout == "" and os.listdir(tmp_path) == []

    def test_read_only_out_directory_refused_before_work(
            self, tmp_path, monkeypatch, capsys):
        # the directory exists but cannot be written: refused at parse time,
        # before any session runs.  Root ignores mode bits, so the check is
        # exercised through os.access
        from wkyber import cli
        real_access, real_run, sessions = os.access, cli.run_sessions, []

        def access(path, mode, *args, **kwargs):
            if os.path.abspath(path) == str(tmp_path) and mode & os.W_OK:
                return False
            return real_access(path, mode, *args, **kwargs)

        def counted(*args, **kwargs):
            sessions.append(None)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(os, "access", access)
        monkeypatch.setattr(cli, "run_sessions", counted)
        with pytest.raises(SystemExit) as exc:
            main(["exchange", "--trials", "2",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2 and sessions == []
        assert "--out" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("target", ["", "missing/", "file/"])
    def test_nameless_out_refused_before_work(self, tmp_path, monkeypatch,
                                              capsys, target):
        # abspath drops an empty name and a trailing separator, so each of
        # these sits in a writable directory; none names a file, so each is
        # refused at parse time, before any session runs, and nothing is
        # written in the working directory or its parent
        from wkyber import cli
        real_run, sessions = cli.run_sessions, []

        def counted(*args, **kwargs):
            sessions.append(None)
            return real_run(*args, **kwargs)

        work = tmp_path / "work"
        work.mkdir()
        (work / "file").write_text("")
        monkeypatch.chdir(work)
        monkeypatch.setattr(cli, "run_sessions", counted)
        with pytest.raises(SystemExit) as exc:
            main(["exchange", "--trials", "2", "--out", target])
        assert exc.value.code == 2 and sessions == []
        assert "--out" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["work"]
        assert os.listdir(work) == ["file"]

    def test_out_symlink_writes_its_target(self, tmp_path):
        # the link stays a link, and the file it names gets the CSV
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "sigma.csv"
        target.write_text("old\n")
        link = tmp_path / "link"
        link.symlink_to(target)
        assert main(["sigma", "--grid", "-6:-5:1", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().startswith("snr_db,sigma\n")
        assert os.listdir(tmp_path / "real") == ["sigma.csv"]

    def test_out_fifo_refused_before_work(self, tmp_path, monkeypatch,
                                          capsys):
        # an existing --out that is not a regular file is refused at parse
        # time, before any session runs; the FIFO is never opened
        from wkyber import cli
        real_run, sessions = cli.run_sessions, []

        def counted(*args, **kwargs):
            sessions.append(None)
            return real_run(*args, **kwargs)

        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        monkeypatch.setattr(cli, "run_sessions", counted)
        with pytest.raises(SystemExit) as exc:
            main(["exchange", "--trials", "2", "--out", str(fifo)])
        assert exc.value.code == 2 and sessions == []
        assert "--out" in capsys.readouterr().err
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["fifo"]

    @pytest.mark.parametrize("existing", [None, 0o640], ids=["new", "0640"])
    def test_out_mode_is_what_open_gives(self, tmp_path, existing):
        # a new file gets 0o666 less the umask, an existing one keeps its mode
        out_file = tmp_path / "sigma.csv"
        if existing is not None:
            out_file.write_text("")
            os.chmod(out_file, existing)
        umask = os.umask(0o022)
        try:
            code = main(["sigma", "--grid", "-6:-5:1", "--out", str(out_file)])
        finally:
            os.umask(umask)
        assert code == 0
        assert stat.S_IMODE(os.stat(out_file).st_mode) == (existing or 0o644)

    @pytest.mark.parametrize("step", ["mkstemp", "replace"])
    def test_failed_write_exit_code(self, tmp_path, monkeypatch, capsys,
                                    step):
        # the directory exists, but writing in it fails: exit 2 with the
        # reason, no traceback, and no temporary file left behind
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(tempfile if step == "mkstemp" else os, step,
                            refuse)
        out_file = tmp_path / "sigma.csv"
        code, out, err = run_cli(capsys, "sigma", "--grid", "-6:-5:1",
                                 "--out", str(out_file))
        assert code == 2 and out == ""
        assert f"cannot write {out_file}: Permission denied" in err
        assert os.listdir(tmp_path) == []

    def test_infinite_snr_is_noiseless(self, capsys):
        code, out, _ = run_cli(capsys, "exchange", "--trials", "1",
                               "--snr-msb", "inf", "--snr-lsb", "inf")
        assert code == 0 and parse(out)[0]["outcome"] == "match"

    def test_seed_beyond_64_bits_runs(self, capsys):
        code, out, _ = run_cli(capsys, "exchange", "--trials", "1",
                               "--seed", str(1 << 64))
        assert code == 0 and parse(out)[0]["outcome"] == "match"

    def test_unknown_command_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wkyber.cli", "frobnicate"],
            capture_output=True)
        assert proc.returncode == 2

    def test_precision_guard_exit_code(self, monkeypatch, capsys):
        from wkyber import cli
        from wkyber.reliability import PrecisionLossError

        def boom(snr):
            raise PrecisionLossError("synthetic")

        monkeypatch.setattr(cli, "failure_prob_rows", boom)
        assert main(["failure-prob"]) == 3

    def test_shared_parser_matches_fresh_parser(self, capsys):
        # the parser is built once per process; no verb may leave state in
        # it that changes the output of the next call
        calls = [("codeword-error", "--trials", "500"),
                 ("exchange", "--trials", "2", "--params", "512"),
                 ("ber", "--grid", "0:4:2", "--trials", "200")]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        shared = [run_cli(capsys, *argv) for argv in calls + calls]
        assert shared == fresh + fresh

    def test_atomic_file_output(self, tmp_path, capsys):
        out_file = tmp_path / "sigma.csv"
        code = main(["sigma", "--grid", "-6:-5:1", "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("snr_db,sigma\n")
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
