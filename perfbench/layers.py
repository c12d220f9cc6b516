"""Span tracer for the traced run.

The tracer replaces public wkyber functions with timing wrappers at the
names their callers look them up under (``transport.demodulate_symbols``,
``bch.bch_decode``, ``NoiseSource.pairs``, ``IntDist.convolve``, ...), keeps
one span per call in memory and reduces the spans to per-layer call counts
and self times when the run ends.  Nothing inside the package is edited:
``patch`` rebinds names for the duration of the traced pass and ``restore``
puts the originals back.

Everything runs on one thread, so spans nest strictly and no layer ever
waits on another; there is no wait time to report.
"""

import gzip
import statistics
import time
from collections import defaultdict

# (metric prefix, [(module name or module.Class, attribute), ...]).  A
# function imported into several modules is wrapped in each, because each
# caller looks it up in its own module's namespace.
LAYERS = [
    ("core.ntt", [("core", "ntt")]),
    ("core.intt", [("core", "intt")]),
    ("core.matvec_mul", [("pke", "matvec_mul"), ("protocol", "matvec_mul")]),
    ("core.inner_product", [("pke", "inner_product"),
                            ("protocol", "inner_product")]),
    ("core.gen_matrix", [("pke", "gen_matrix"), ("protocol", "gen_matrix")]),
    ("core.cbd_sample", [("core", "cbd_sample")]),
    ("core.pack12", [("pke", "pack12"), ("protocol", "pack12")]),
    ("core.unpack12", [("pke", "unpack12"), ("protocol", "unpack12")]),
    ("modem.noise_draw", [("modem.NoiseSource", "pairs")]),
    ("modem.transmit", [("transport", "transmit")]),
    ("modem.modulate_words", [("transport", "modulate_words")]),
    ("modem.demodulate_symbols", [("transport", "demodulate_symbols")]),
    ("bch.fallback", [("bch", "bch_decode")]),
    ("transport.send_coeffs", [("protocol", "send_coeffs")]),
    ("transport.receive_coeffs", [("protocol", "receive_coeffs")]),
    ("transport.send_blocks", [("protocol", "send_blocks"),
                               ("transport", "send_blocks")]),
    ("transport.receive_blocks", [("protocol", "receive_blocks"),
                                  ("transport", "receive_blocks")]),
    ("pke.keygen", [("protocol", "keygen")]),
    ("protocol.v2_keygen", [("protocol", "v2_keygen")]),
    ("protocol.kem_v1_encaps", [("protocol", "kem_v1_encaps")]),
    ("protocol.kem_v1_decaps", [("protocol", "kem_v1_decaps")]),
    # run_session reaches V2 encryption through the v2_* aliases
    ("protocol.wk_encrypt", [("protocol", "wk_encrypt"),
                             ("protocol", "v2_encrypt")]),
    ("protocol.wk_decrypt", [("protocol", "wk_decrypt"),
                             ("protocol", "v2_decrypt")]),
    ("protocol.run_session", [("cli", "run_session")]),
    ("reliability.convolve", [("reliability.IntDist", "convolve")]),
    ("reliability.product", [("reliability.IntDist", "product")]),
    ("reliability.channel_error_intdist", [("reliability",
                                            "channel_error_intdist")]),
    ("reliability.compression_error_dist", [("reliability",
                                             "compression_error_dist")]),
    ("reliability.noise_distribution", [("reliability", "noise_distribution")]),
    ("reliability.failure_probability", [("reliability",
                                          "failure_probability")]),
]

# spans of one session, or of one failure-table row, share the unit id that
# the outermost of these spans opens; spans outside any unit carry -1
UNIT_LAYERS = ("protocol.run_session", "reliability.failure_probability")

# counters and ratios reported next to the .calls / .self_ms pairs
EXTRA_METRICS = [
    ("core.gen_matrix.cache_hits", "count", "higher"),
    ("core.gen_matrix.cache_misses", "count", "lower"),
    ("modem.symbols", "count", "lower"),
    ("bch.blocks", "count", "lower"),
    ("bch.fallback_share", "ratio", "lower"),
    ("bch.decode_failures", "count", "lower"),
    ("bch.corrections", "count", "lower"),
    ("protocol.run_session.p50_ms", "ms", "lower"),
    ("protocol.run_session.p99_ms", "ms", "lower"),
    ("protocol.run_session.samples", "count", "higher"),
    ("reliability.convolve.mass_terms", "count", "lower"),
    ("v1.sessions_per_s", "1/s", "higher"),
    ("v2.sessions_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for prefix, _ in LAYERS:
        specs.append((f"{prefix}.calls", "count", "lower"))
        specs.append((f"{prefix}.self_ms", "ms", "lower"))
    return specs + EXTRA_METRICS


def _count_symbols(counts, args, result):
    counts["modem.symbols"] += len(args[0])


def _count_blocks(counts, args, result):
    counts["bch.blocks"] += args[1]


def _count_decode(counts, args, result):
    if result is None:
        counts["bch.decode_failures"] += 1
    else:
        counts["bch.corrections"] += result[1]


def _count_mass_terms(counts, args, result):
    counts["reliability.convolve.mass_terms"] += (len(args[0].masses)
                                                  * len(args[1].masses))


COUNTERS = {
    "modem.transmit": _count_symbols,
    "transport.receive_blocks": _count_blocks,
    "bch.fallback": _count_decode,
    "reliability.convolve": _count_mass_terms,
}


def _resolve(package, owner: str):
    obj = package
    for part in owner.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, unit id]."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []
        self._unit = -1
        self._patches = []

    def _wrap(self, name, original):
        spans, stack, counts = self.spans, self._stack, self.counts
        opens_unit = name in UNIT_LAYERS
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                unit = spans[parent][4]
            else:
                parent = -1
                if opens_unit:
                    self._unit += 1
                unit = self._unit if opens_unit else -1
            span = [name, 0, 0, parent, unit]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def patch(self):
        self.missing = []
        for name, sites in LAYERS:
            for owner_name, attr in sites:
                owner = _resolve(self.package, owner_name)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{owner_name}.{attr}")
                    continue
                setattr(owner, attr, self._wrap(name, original))
                self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def per_layer(self) -> dict:
        """Calls and self time (duration minus child coverage) per layer,
        plus the counters gathered at the same boundaries."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        sessions_ms = []
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            if name == "protocol.run_session":
                sessions_ms.append((end - start) / 1e6)
        out = {}
        for prefix, _ in LAYERS:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.self_ms"] = self_ns[prefix] / 1e6
        for key in ("modem.symbols", "bch.blocks", "bch.decode_failures",
                    "bch.corrections", "reliability.convolve.mass_terms"):
            out[key] = self.counts[key]
        blocks = self.counts["bch.blocks"]
        out["bch.fallback_share"] = calls["bch.fallback"] / blocks if blocks else 0.0
        if len(sessions_ms) >= 2:
            cuts = statistics.quantiles(sessions_ms, n=100)
            out["protocol.run_session.p50_ms"] = cuts[49]
            out["protocol.run_session.p99_ms"] = cuts[98]
        else:
            out["protocol.run_session.p50_ms"] = 0.0
            out["protocol.run_session.p99_ms"] = 0.0
        out["protocol.run_session.samples"] = len(sessions_ms)
        return out

    def write_spans(self, path):
        """One CSV line per span, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_ns,end_ns,parent,unit\n")
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{unit}\n")
