"""Command-line surface: every experiment as a CSV-emitting verb.

Verbs: ber | coeff-dist | codeword-error | ker | failure-prob | sigma |
exchange.  codeword-error decodes flipped BCH codewords (``bch``) directly,
ker and exchange run full sessions (``protocol``).  Identical flags and
seed produce byte-identical output; files are written atomically.  Exit
codes: 0 success, 2 usage error or an --out file that cannot be written, 3
precision-guard trip inside the analysis engine.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
import tempfile

import numpy as np

from .bch import CODE_N, ENCODE_TABLE, codeword_error_prob, decode_words
from .modem import (NoiseSource, bit_error_prob, demodulate_symbols,
                    flip_masks, modulate_words, transmit)
from .params import PARAM_SETS
from .protocol import (ker_monte_carlo, run_sessions, session_plans,
                       snr_warnings)
from .reliability import (IntDist, PrecisionLossError, coeff_error_dist,
                          failure_prob_rows, rate_interval, sigma_vs_snr)

MAX_GRID_POINTS = 10_000


def _snr_in_range(snr_db: float) -> bool:
    """Whether bit_error_prob prices snr_db: Eb/N0 positive, or +inf."""
    try:
        bit_error_prob(snr_db)
    except ValueError:
        return False
    return True


def _parse_grid(spec: str):
    try:
        start, stop, step = (float(p) for p in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:step, got {spec!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(
            f"grid fields must be finite, got {spec!r}")
    # points round to 1e-9 dB, so a finer step would repeat them
    if step < 1e-9 or stop < start:
        raise argparse.ArgumentTypeError(
            f"bad grid {spec!r}: need stop >= start and step >= 1e-9 dB")
    # slack for float error in stop - start, at most half a step
    steps = (stop - start + min(1e-9, step / 2)) / step
    if steps >= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    grid = tuple(round(start + i * step, 9) for i in range(int(steps) + 1))
    if not all(map(_snr_in_range, grid)):
        raise argparse.ArgumentTypeError(
            f"grid {spec!r} leaves the SNR range, about -3236..3082 dB")
    return grid


def _snr_db(text: str) -> float:
    """argparse type: an SNR in dB, where inf means noiseless; NaN, -inf and
    SNRs whose Eb/N0 overflows or underflows are usage errors (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not _snr_in_range(value):
        raise argparse.ArgumentTypeError(
            f"SNR must be inf or within about -3236..3082 dB, got {text!r}")
    return value


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _out_path(text: str) -> str:
    """argparse type: - or a file name in an existing, writable directory
    that names no file or a regular one, symlinks resolved, else exit 2;
    _emit still handles a write that fails later.  An empty name or one
    ending in a separator names no file, though realpath drops both."""
    target = os.path.realpath(text)
    directory = os.path.dirname(target)
    if text != "-" and (not os.path.basename(text)
                        or os.path.lexists(target) and not os.path.isfile(target)
                        or not os.path.isdir(directory)
                        or not os.access(directory, os.W_OK)):
        raise argparse.ArgumentTypeError(f"cannot write a file at {text!r}")
    return text


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _file_mode(path: str) -> int:
    """The mode open(path, "w") leaves: path's own, or 0o666 less umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _emit(rows, header, out_path) -> int:
    """Write the CSV to stdout or atomically to the file out_path resolves
    to, in the mode open would give; the exit code, 2 if writing fails."""
    text = "\n".join([",".join(header)]
                     + [",".join(_fmt(c) for c in row) for row in rows]) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
        return 0
    target = os.path.realpath(out_path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), _file_mode(target))
            fh.write(text)
        os.replace(tmp, target)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return 0


# ---------------------------------------------------------------------------
# verbs


def cmd_ber(args):
    rows = []
    for point, snr in enumerate(args.grid):
        analytic = bit_error_prob(snr)
        nwords = (args.trials + 1) // 2
        noise = NoiseSource(args.seed * 7919 + point)
        words = np.random.default_rng(args.seed + point).integers(0, 4, nwords)
        rx = demodulate_symbols(transmit(modulate_words(words), snr, noise))
        flips = rx ^ words
        nerr = int(((flips & 1) + (flips >> 1)).sum())
        rows.append((snr, analytic, nerr / (2 * nwords)))
    return _emit(rows, ["snr_db", "ber_analytic", "ber_empirical"], args.out)


def cmd_coeff_dist(args):
    channel = coeff_error_dist(args.snr_lsb, "exact").as_dict()
    cbd2 = IntDist.centered_binomial(2).as_dict()
    rows = [(off, channel[off], cbd2.get(off, 0.0)) for off in range(-3, 4)]
    return _emit(rows, ["offset", "channel_pmf", "cbd2_pmf"], args.out)


def cmd_codeword_error(args):
    rows = []
    for point, snr in enumerate(args.grid):
        p_b = bit_error_prob(snr)
        noise = NoiseSource(args.seed * 31337 + point)
        rng = np.random.default_rng(args.seed + point)
        msgs = rng.integers(0, 1 << 10, args.trials)  # 10-bit payloads
        flips = flip_masks([noise], [(args.trials, CODE_N, p_b)])[0]
        got, _, failed = decode_words(ENCODE_TABLE[msgs] ^ flips)
        # a decode failure or a miscorrection onto any other 11-bit message:
        # exactly the >t-bit-flips event the analytic tail counts
        wrong = int(((got != msgs) | failed).sum())
        rows.append((snr, codeword_error_prob(p_b), wrong / args.trials))
    return _emit(rows, ["snr_db", "pce_analytic", "pce_empirical"], args.out)


def cmd_ker(args):
    params = PARAM_SETS[int(args.params)]
    rows = []
    for point, snr_msb in enumerate(args.grid):
        plans = session_plans(args.version, snr_msb, args.snr_lsb)
        failures = ker_monte_carlo(args.version, params, plans, args.trials,
                                   seed=args.seed * 104729 + point,
                                   workers=args.workers)
        rows.append((snr_msb, args.snr_lsb, args.version, params.k,
                     args.trials, failures, failures / args.trials,
                     *rate_interval(failures, args.trials)))
    return _emit(rows, ["snr_msb_db", "snr_lsb_db", "version", "k",
                        "trials", "failures", "ker", "ker_lo", "ker_hi"],
                 args.out)


def cmd_failure_prob(args):
    rows = failure_prob_rows(args.snr_lsb)
    return _emit(rows, ["scheme", "k", "snr_lsb_db", "channel_variant",
                        "log2_failure_prob"], args.out)


def cmd_sigma(args):
    pairs = sigma_vs_snr(args.grid)
    crossing = None
    for (s0, v0), (s1, v1) in zip(pairs, pairs[1:]):
        if v0 >= 1.0 > v1:
            crossing = (s0, s1)
    if crossing:
        print(f"note: sigma crosses 1.0 between {crossing[0]:g} dB and "
              f"{crossing[1]:g} dB", file=sys.stderr)
    return _emit(pairs, ["snr_db", "sigma"], args.out)


def cmd_exchange(args):
    params = PARAM_SETS[int(args.params)]
    plans = session_plans(args.version, args.snr_msb, args.snr_lsb)
    seeds = [args.seed * 65537 + i for i in range(args.trials)]
    rec = run_sessions(args.version, params, plans, seeds)
    warnings = snr_warnings(args.version, plans)
    for w in warnings:
        print(f"policy warning: {w}", file=sys.stderr)
    pk_plan, ct_plan = plans
    run = (args.version, params.k, pk_plan.snr_msb_db, pk_plan.snr_lsb_db,
           ct_plan.snr_msb_db, ct_plan.snr_lsb_db)
    failures = (rec.bch_failures_pk + rec.bch_failures_ct).tolist()
    policy = ";".join(warnings)
    rows = [(i, *run, "match" if ok else "mismatch", f, policy)
            for i, (ok, f) in enumerate(zip(rec.outcome.tolist(), failures))]
    return _emit(rows, ["session_id", "version", "k", "pk_snr_msb_db",
                        "pk_snr_lsb_db", "ct_snr_msb_db", "ct_snr_lsb_db",
                        "outcome", "bch_failures", "policy_warnings"],
                 args.out)


# ---------------------------------------------------------------------------
# parser


# every flag but --grid, whose default differs per verb, in help order
FLAGS = {
    "--params": dict(default="768", choices=["512", "768", "1024"],
                     help="parameter set (default 768)"),
    "--version": dict(default="v1", choices=["v1", "v2"]),
    "--snr-msb": dict(type=_snr_db, default=10.0,
                      help="SNR of the BCH-protected path, dB"),
    "--snr-lsb": dict(type=_snr_db, default=-10.0,
                      help="SNR of the exposed 2-bit path, dB"),
    "--trials": dict(type=_int_at_least(1), default=1000,
                     help="bits / codewords / sessions per point"),
    "--seed": dict(type=_int_at_least(0), default=42),
    "--out": dict(type=_out_path, default=None,
                  help="output file (default stdout)"),
    "--workers": dict(type=_int_at_least(1), default=None,
                      help="parallel workers for Monte Carlo"),
}

# verb -> (handler, help, flags it reads besides --out, default --grid)
VERBS = {
    "ber": (cmd_ber, "analytic vs simulated 4QAM bit error rate",
            ("--trials", "--seed"), "0:10:2"),
    "coeff-dist": (cmd_coeff_dist,
                   "channel coefficient-error PMF vs the binomial law",
                   ("--snr-lsb",), None),
    "codeword-error": (cmd_codeword_error,
                       "analytic vs simulated BCH codeword failure rate",
                       ("--trials", "--seed"), "-2:4:1"),
    "ker": (cmd_ker, "Monte Carlo key error rate over an MSB-path SNR grid",
            ("--params", "--version", "--snr-lsb", "--trials", "--seed",
             "--workers"), "6:15:3"),
    "failure-prob": (cmd_failure_prob,
                     "analytic decryption failure probabilities",
                     ("--snr-lsb",), None),
    "sigma": (cmd_sigma, "channel error deviation vs SNR "
                         "(hand-off to lattice estimators)", (), "-15:0:1"),
    "exchange": (cmd_exchange, "run full sessions and print transcripts",
                 ("--params", "--version", "--snr-msb", "--snr-lsb",
                  "--trials", "--seed"), None),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The wkyber parser, built once per process: parsing leaves it as it
    was, and its defaults are immutable.  Each verb accepts only the flags
    it reads, so any other flag is a usage error."""
    top = argparse.ArgumentParser(
        prog="wkyber",
        description="AWGN-channel key exchange simulator and analysis tool")
    sub = top.add_subparsers(dest="command", required=True)
    for verb, (func, help_text, reads, grid_default) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for flag, spec in FLAGS.items():
            if flag in reads or flag == "--out":
                p.add_argument(flag, **spec)
        if grid_default:
            p.add_argument("--grid", type=_parse_grid,
                           default=_parse_grid(grid_default),
                           help=f"start:stop:step (default {grid_default})")
        p.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse mistakes "-15:0:1" for an option; fold grid values in
    merged = []
    for tok in argv:
        if merged and merged[-1] == "--grid" and tok.startswith("-"):
            merged[-1] = f"--grid={tok}"
        else:
            merged.append(tok)
    args = build_parser().parse_args(merged)
    try:
        return args.func(args)
    except PrecisionLossError as exc:
        print(f"precision guard tripped: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
