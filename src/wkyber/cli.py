"""Command-line surface: every experiment as a CSV-emitting verb.

Verbs: ber | coeff-dist | codeword-error | ker | failure-prob | sigma |
exchange.  Identical flags and seed produce byte-identical output; files are
written atomically.  Exit codes: 0 success, 2 usage error, 3 precision-guard
trip inside the analysis engine.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile

import numpy as np

from .bch import codeword_error_prob
from .dist import IntDist, PrecisionLossError
from .modem import (NoiseSource, demodulate_symbols, modulate_words,
                    snr_db_to_linear, transmit)
from .params import get_params
from .protocol import FO_POLICIES, run_sessions, session_plans
from .reliability import failure_prob_rows, ker_monte_carlo, sigma_vs_snr
from .transport import (bit_error_prob, coeff_error_dist, receive_blocks,
                        send_blocks)

MAX_GRID_POINTS = 10_000


def _snr_in_range(snr_db: float) -> bool:
    """Whether Eb/N0 at snr_db is a positive float, or +inf (noiseless)."""
    try:
        return snr_db_to_linear(snr_db) > 0
    except OverflowError:
        return False


def _parse_grid(spec: str):
    try:
        start, stop, step = (float(p) for p in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:step, got {spec!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(
            f"grid fields must be finite, got {spec!r}")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}")
    steps = (stop - start + 1e-9) / step
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
    """argparse type: - or a file in an existing directory, else exit 2."""
    if text != "-" and (os.path.isdir(text) or not os.path.isdir(
            os.path.dirname(os.path.abspath(text)))):
        raise argparse.ArgumentTypeError(f"cannot write a file at {text!r}")
    return text


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _emit(rows, header, out_path):
    text = "\n".join([",".join(header)]
                     + [",".join(_fmt(c) for c in row) for row in rows]) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# verbs


def cmd_ber(args):
    rows = []
    for point, snr in enumerate(args.grid):
        analytic = bit_error_prob(snr)
        bits = max(2, args.trials)
        nwords = (bits + 1) // 2
        noise = NoiseSource(args.seed * 7919 + point)
        words = np.random.default_rng(args.seed + point).integers(0, 4, nwords)
        rx = demodulate_symbols(transmit(modulate_words(words), snr, noise))
        flips = rx ^ words
        nerr = int(((flips & 1) + (flips >> 1)).sum())
        rows.append((snr, analytic, nerr / (2 * nwords)))
    _emit(rows, ["snr_db", "ber_analytic", "ber_empirical"], args.out)


def cmd_coeff_dist(args):
    channel = coeff_error_dist(args.snr_lsb).as_dict()
    cbd2 = IntDist.centered_binomial(2).as_dict()
    rows = [(off, channel[off], cbd2.get(off, 0.0)) for off in range(-3, 4)]
    _emit(rows, ["offset", "channel_pmf", "cbd2_pmf"], args.out)


def cmd_codeword_error(args):
    rows = []
    for point, snr in enumerate(args.grid):
        analytic = codeword_error_prob(bit_error_prob(snr))
        noise = NoiseSource(args.seed * 31337 + point)
        rng = np.random.default_rng(args.seed + point)
        msgs = rng.integers(0, 1 << 10, args.trials)  # 10-bit payloads
        got, failed = receive_blocks(send_blocks(msgs, snr, noise), args.trials)
        # unrecovered = decode failure or silent miscorrection; together these
        # are exactly the >t-bit-flips event the analytic tail counts
        wrong = int(((got != msgs) | failed).sum())
        rows.append((snr, analytic, wrong / args.trials))
    _emit(rows, ["snr_db", "pce_analytic", "pce_empirical"], args.out)


def cmd_ker(args):
    params = get_params(args.params)
    rows = []
    for point, snr_msb in enumerate(args.grid):
        plans = session_plans(args.version, snr_msb, args.snr_lsb)
        pt = ker_monte_carlo(args.version, params, plans, args.trials,
                             seed=args.seed * 104729 + point,
                             fo_policy=args.fo_policy, workers=args.workers)
        rows.append((pt.snr_msb_db, pt.snr_lsb_db, args.version, params.k,
                     pt.trials, pt.failures, pt.ker, *pt.interval()))
    _emit(rows, ["snr_msb_db", "snr_lsb_db", "version", "k", "trials",
                 "failures", "ker", "ker_lo", "ker_hi"], args.out)


def cmd_failure_prob(args):
    rows = failure_prob_rows(args.snr_lsb)
    _emit(rows, ["scheme", "k", "snr_lsb_db", "channel_variant",
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
    _emit(pairs, ["snr_db", "sigma"], args.out)


def cmd_exchange(args):
    params = get_params(args.params)
    plans = session_plans(args.version, args.snr_msb, args.snr_lsb)
    seeds = [args.seed * 65537 + i for i in range(args.trials)]
    rec = run_sessions(args.version, params, plans, seeds,
                       fo_policy=args.fo_policy)
    for w in rec.warnings:
        print(f"policy warning: {w}", file=sys.stderr)
    run = (rec.version, rec.k, rec.pk_plan.snr_msb_db, rec.pk_plan.snr_lsb_db,
           rec.ct_plan.snr_msb_db, rec.ct_plan.snr_lsb_db)
    failures = (rec.bch_failures_pk + rec.bch_failures_ct).tolist()
    warnings = ";".join(rec.warnings)
    rows = [(i, *run, "match" if ok else "mismatch", f, warnings)
            for i, (ok, f) in enumerate(zip(rec.outcome.tolist(), failures))]
    _emit(rows, ["session_id", "version", "k", "pk_snr_msb_db", "pk_snr_lsb_db",
                 "ct_snr_msb_db", "ct_snr_lsb_db", "outcome", "bch_failures",
                 "policy_warnings"], args.out)


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
    "--fo-policy": dict(default="msb-only", choices=FO_POLICIES,
                        help="re-encryption comparison policy (v1 KEM)"),
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
             "--fo-policy", "--workers"), "6:15:3"),
    "failure-prob": (cmd_failure_prob,
                     "analytic decryption failure probabilities",
                     ("--snr-lsb",), None),
    "sigma": (cmd_sigma, "channel error deviation vs SNR "
                         "(hand-off to lattice estimators)", (), "-15:0:1"),
    "exchange": (cmd_exchange, "run full sessions and print transcripts",
                 ("--params", "--version", "--snr-msb", "--snr-lsb",
                  "--trials", "--seed", "--fo-policy"), None),
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
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--grid" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"--grid={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    args = build_parser().parse_args(merged)
    try:
        args.func(args)
    except PrecisionLossError as exc:
        print(f"precision guard tripped: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
