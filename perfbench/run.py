"""wkyber benchmark: Monte Carlo session sweeps and the failure table.

Run from the root of a wkyber checkout (the package is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload sessions-nominal --seed 42 \\
        --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

  sessions-nominal   ``wkyber.cli.main(["exchange", ...])`` round-robin over
                     v1/v2 x 512/768/1024 at 10 / -10 dB
  sessions-degraded  the same calls with ``--snr-msb 6``
  failure-table      ``wkyber.reliability.failure_prob_rows(-10.0)``

One client, one thread, closed loop: each call starts after the previous one
returns.  Every output is checked; at the default seed the exchange CSVs and
the table rows must match ``reference.json``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the same work once untraced and once
under the span tracer of ``layers.py`` and reports the per-layer metrics.
The last line of stdout is the result object; the line before it is the
run record.  ``--write-reference`` regenerates ``reference.json``.
"""

import os

# the harness is a single-threaded client; keep BLAS/OpenMP pools at one
# thread in this process and in the set-up probes it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 42
SNR_LSB = -10.0
# workload -> protected-path SNR in dB (None: the failure table)
WORKLOADS = {
    "sessions-nominal": 10.0,
    "sessions-degraded": 6.0,
    "failure-table": None,
}
MIX = [(version, params) for version in ("v1", "v2")
       for params in ("512", "768", "1024")]
K_OF = {"512": 2, "768": 3, "1024": 4}
TRIALS = 4             # sessions per exchange call; amortises argument parsing
PINNED_PASSES = 10     # passes whose CSVs are pinned at the default seed
TRACE_PASSES = 50      # 1200 sessions per traced run: >= 10 beyond p99
SETUP_REPEATS = 5
TABLE_TOLERANCE = 1e-9  # log2 units
# Single mismatches are simulation results.  At both operating points the
# analytic mismatch probability per session is far below 1e-6 (codeword
# failures ~1e-10 per block, decryption failures below 2^-100), so a run
# where more than 1% of sessions mismatch has a broken program, not bad luck.
MISMATCH_GATE = 0.01
HEADER = ("session_id,version,k,pk_snr_msb_db,pk_snr_lsb_db,ct_snr_msb_db,"
          "ct_snr_lsb_db,outcome,bch_failures,policy_warnings")


# ---------------------------------------------------------------------------
# package, set-up time and run record


def load_package():
    init = SRC / "wkyber" / "__init__.py"
    if not init.is_file():
        sys.exit(f"run.py: {init} not found; run from the root of a wkyber "
                 "checkout")
    sys.path.insert(0, str(SRC))
    import wkyber
    import wkyber.cli  # noqa: F401  (not imported by the package itself)
    return wkyber


def measure_setup() -> float:
    """Median time of ``import wkyber`` in fresh interpreters, in reference
    seconds: the package, numpy/mpmath and every module-level table."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, str(HERE / "speed.py"), str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        if i:  # the first probe also writes the bytecode cache
            times.append(float(out.stdout))
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, package) -> dict:
    import mpmath
    import numpy
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "wkyber": package.__version__,
        "git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
        "src_lines": lines, "blas_threads": 1,
    }


# ---------------------------------------------------------------------------
# operations and their checks


class Tally:
    """Operations attempted and failed, plus the results worth recording."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}
        self.version_s = {"v1": 0.0, "v2": 0.0}
        self.version_sessions = {"v1": 0, "v2": 0}
        self.mismatches = 0
        self.bch_failures = 0
        self.policy_warnings = 0

    def fail(self, what: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def call_seed(seed: int, call: int) -> int:
    """Exchange ``--seed`` of the call-th call; 40 bits keep every derived
    session seed (seed * 65537 + i) inside the CLI's 64-bit range."""
    digest = hashlib.sha256(f"wkyber-bench:{seed}:{call}".encode()).digest()
    return int.from_bytes(digest[:5], "little")


def check_exchange(csv: str, version: str, params: str, snr_msb: float):
    """Validate one exchange CSV; returns (mismatches, bch_failures).

    Simulated mismatches and BCH decode failures are results, not errors.
    """
    lines = csv.split("\n")
    if lines[0] != HEADER or lines[-1] != "" or len(lines) != TRIALS + 2:
        raise ValueError("malformed exchange CSV")
    pk_lsb = snr_msb if version == "v1" else SNR_LSB
    plan = [snr_msb, pk_lsb, snr_msb, SNR_LSB]
    mismatches = failures = 0
    for i, line in enumerate(lines[1:-1]):
        f = line.split(",", 9)
        if (len(f) != 10 or f[0] != str(i) or f[1] != version
                or f[2] != str(K_OF[params])
                or [float(x) for x in f[3:7]] != plan
                or f[7] not in ("match", "mismatch") or int(f[8]) < 0):
            raise ValueError(f"unexpected exchange row {line!r}")
        mismatches += f[7] == "mismatch"
        failures += int(f[8])
    return mismatches, failures


def sessions_pass(cli, tally, seed, snr_msb, index, pinned):
    """One exchange call per (version, params) of MIX."""
    for j, (version, params) in enumerate(MIX):
        call = index * len(MIX) + j
        argv = ["exchange", "--version", version, "--params", params,
                "--trials", str(TRIALS), "--seed", str(call_seed(seed, call)),
                f"--snr-msb={snr_msb:g}", f"--snr-lsb={SNR_LSB:g}"]
        out, err = io.StringIO(), io.StringIO()
        tally.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a raising call is a failed op
            status = exc
        tally.version_s[version] += time.perf_counter() - start
        tally.version_sessions[version] += TRIALS
        csv = out.getvalue()
        digest = hashlib.sha256(csv.encode()).hexdigest()
        try:
            if status != 0:
                raise ValueError(f"returned {status!r}")
            mismatches, failures = check_exchange(csv, version, params, snr_msb)
            if call < len(pinned) and digest != pinned[call]:
                raise ValueError("CSV differs from the pinned reference")
        except ValueError as exc:
            tally.fail(f"call {call} ({' '.join(argv)}): {exc}")
            continue
        tally.mismatches += mismatches
        tally.bch_failures += failures
        tally.policy_warnings += err.getvalue().count("policy warning:")
        if call < PINNED_PASSES * len(MIX):
            tally.digests[call] = digest


def gate_mismatches(tally):
    sessions = sum(tally.version_sessions.values())
    if tally.mismatches > MISMATCH_GATE * sessions:
        tally.fail(f"{tally.mismatches} of {sessions} sessions mismatched")


def check_table(rows, reference):
    if len(rows) != len(reference):
        return f"{len(rows)} rows, expected {len(reference)}"
    for row, ref in zip(rows, reference):
        if (list(row[:4]) != ref[:4]
                or not abs(row[4] - ref[4]) <= TABLE_TOLERANCE):
            return f"row {row!r} differs from pinned {ref!r}"
    return None


def table_pass(reliability, tally, reference):
    tally.attempted += 1
    try:
        rows = reliability.failure_prob_rows(SNR_LSB)
    except Exception as exc:  # a raising call is a failed op
        rows = exc
    problem = (f"raised {rows!r}" if isinstance(rows, Exception)
               else check_table(rows, reference))
    if problem:
        tally.fail(f"failure table: {problem}")


def make_pass(package, workload, seed, reference):
    """(pass function taking (tally, index), items per pass)."""
    snr_msb = WORKLOADS[workload]
    if snr_msb is None:
        rows = reference["failure-table"]
        return (lambda tally, index: table_pass(package.reliability, tally,
                                                rows)), len(rows)
    pinned = reference[workload] if seed == DEFAULT_SEED else []
    return (lambda tally, index: sessions_pass(package.cli, tally, seed,
                                               snr_msb, index, pinned)), \
        len(MIX) * TRIALS


# ---------------------------------------------------------------------------
# runs


def _version_rates(tally) -> dict:
    return {f"{v}.sessions_per_s": (tally.version_sessions[v] / tally.version_s[v]
                                    if tally.version_s[v] else 0.0)
            for v in ("v1", "v2")}


def _info(tally) -> dict:
    info = {"mismatches": tally.mismatches, "bch_failures": tally.bch_failures,
            "policy_warnings": tally.policy_warnings, "errors": tally.errors}
    if tally.digests:
        calls = sorted(tally.digests)
        info["csv_calls_digested"] = len(calls)
        info["csv_sha256"] = hashlib.sha256(
            "".join(tally.digests[c] for c in calls).encode()).hexdigest()
    return info


def _timed(run_pass, tally, index):
    """Run one pass; returns its wall-time interval."""
    start = time.perf_counter()
    run_pass(tally, index)
    return start, time.perf_counter()


def timed_run(package, args, reference):
    """Passes until the next one would overrun --seconds.  items_per_s uses
    the median pass in reference seconds (see speed.py); the raw wall-time
    figures go to the run record."""
    run_pass, items = make_pass(package, args.workload, args.seed, reference)
    min_passes = 1 if WORKLOADS[args.workload] is None else PINNED_PASSES
    setup_s = measure_setup()
    tally = Tally()
    intervals = []
    # the probe that does the same kind of work as the workload
    probe = (speed.bignum_probe if WORKLOADS[args.workload] is None
             else speed.numpy_probe)
    with speed.SpeedClock(probe) as clock:
        t0 = time.perf_counter()
        while (len(intervals) < min_passes
               or time.perf_counter() - t0 + statistics.median(
                   end - start for start, end in intervals) <= args.seconds):
            intervals.append(_timed(run_pass, tally, len(intervals)))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    gate_mismatches(tally)
    scaled = [clock.scaled(start, end) for start, end in intervals]
    wall = [end - start for start, end in intervals]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "items_per_s": (items / statistics.median(scaled), "1/s"),
    }
    info = _info(tally)
    info.update(passes=len(intervals), items_per_pass=items,
                pass_p50_ref_s=statistics.median(scaled),
                pass_max_ref_s=max(scaled),
                pass_p50_wall_s=statistics.median(wall),
                wall_items_per_s=items / statistics.median(wall))
    if WORKLOADS[args.workload] is not None:
        info.update(_version_rates(tally))
    return tally, metrics, info


def _gen_matrix_cache(package):
    cached = getattr(package.core, "_gen_matrix_cached", None)
    info = getattr(cached, "cache_info", None)
    return info() if info else None


def traced_run(package, args, reference):
    """Each pass runs untraced on later seeds and then traced, so the two
    see the same host speed and the traced pass finds none of the untraced
    pass's matrices in the gen_matrix cache.  Per-layer metrics come from
    the traced passes; trace.overhead compares the two."""
    run_pass, _ = make_pass(package, args.workload, args.seed, reference)
    passes = 1 if WORKLOADS[args.workload] is None else TRACE_PASSES
    tracer = layers.Tracer(package)
    plain, traced = Tally(), Tally()
    untraced_s = traced_s = 0.0
    hits = misses = 0
    has_cache = _gen_matrix_cache(package) is not None
    for i in range(passes):
        start, end = _timed(run_pass, plain, passes + i)
        untraced_s += end - start
        before = _gen_matrix_cache(package)
        tracer.patch()
        try:
            start, end = _timed(run_pass, traced, i)
        finally:
            tracer.restore()
        traced_s += end - start
        after = _gen_matrix_cache(package)
        if has_cache:
            hits += after.hits - before.hits
            misses += after.misses - before.misses
    gate_mismatches(plain)
    gate_mismatches(traced)
    values = tracer.per_layer()
    values["core.gen_matrix.cache_hits"] = hits
    # without a cache every expansion is a miss
    values["core.gen_matrix.cache_misses"] = (
        misses if has_cache else values["core.gen_matrix.calls"])
    values.update(_version_rates(plain))
    values["trace.overhead"] = traced_s / untraced_s - 1.0
    metrics = {name: (values[name], unit)
               for name, unit, _ in layers.metric_specs()}
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_spans(spans_path)

    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    tally.errors = (plain.errors + traced.errors)[:5]
    info = _info(traced)
    info.update(errors=tally.errors, spans=len(tracer.spans),
                spans_file=str(spans_path.relative_to(ROOT)),
                unpatched=tracer.missing, untraced_s=untraced_s,
                traced_s=traced_s)
    return tally, metrics, info


def write_reference(package):
    """Pin the default-seed exchange CSV digests and the failure table."""
    reference = {"default_seed": DEFAULT_SEED}
    for workload, snr_msb in WORKLOADS.items():
        tally = Tally()
        if snr_msb is None:
            rows = package.reliability.failure_prob_rows(SNR_LSB)
            reference[workload] = [list(row) for row in rows]
            continue
        for index in range(PINNED_PASSES):
            sessions_pass(package.cli, tally, DEFAULT_SEED, snr_msb, index, [])
        if tally.failed:
            sys.exit(f"run.py: cannot pin {workload}: {tally.errors}")
        reference[workload] = [tally.digests[c] for c in sorted(tally.digests)]
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS),
                   default="sessions-nominal")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference.json from this checkout")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = load_package()
    if args.write_reference:
        write_reference(package)
        return 0
    reference = json.loads(REFERENCE.read_text())
    run = traced_run if args.trace else timed_run
    tally, metrics, info = run(package, args, reference)
    record = run_record(args, package)
    record["info"] = info
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
