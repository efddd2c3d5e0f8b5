"""tamebox benchmark: seeded workloads through the command line, in process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload colimit-deep --seed 1 --seconds 20 --trace 0

Each operation is one call of `tamebox.cli.main(argv)` with standard
output captured, on documents generated from the seed (see
`workloads.py`).  The load is one closed loop on one thread: the next
command is issued when the previous one returns.  A run repeats whole
rounds (every operation of the workload once, in a seeded order), as
many as last about `--seconds` seconds at nominal speed (see
`ROUND_SECONDS`), then checks every distinct output.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` the run first measures without tracing for half the time,
then runs one traced round and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

The library is imported from `src/` of the checkout and nowhere else;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout

PROCESS_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

SETUP_PASSES = 3
TAIL_BEYOND = 10
MAX_RUN_SECONDS = 120

# Approximate duration of one round on a 2-core x86 machine (it varied
# by up to 1.8x there).  A run repeats round(seconds / nominal) rounds,
# so it lasts about --seconds, while every seed and every commit measure
# the same number of samples: a count chosen from the measured time
# would move the tail's rank between runs.
ROUND_SECONDS = {"colimit-deep": 7.0, "laws-shallow": 1.0, "certify": 3.0}

# On a shared 2-core x86 machine the speed drifted by up to 1.8x
# between runs of the same inputs, and the workloads' times follow that
# drift.  So a run times a reference loop between operations (at most
# every REFERENCE_EVERY_S seconds) and scales its end-to-end times by
# REFERENCE_NOMINAL_S (about the loop's median on a 2-core x86 machine)
# over the run's median loop time.  The loop allocates no tracked
# objects, so garbage collection of the workload's heap does not land
# in it.  Over six runs of the same laws-shallow inputs this cut the
# spread of ops_per_s from +-12% to +-6%.
REFERENCE_NOMINAL_S = 0.014
REFERENCE_EVERY_S = 0.25

END_TO_END = [
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_library():
    """Import tamebox from the checkout's src/ only; exit 2 without it."""
    init = os.path.join(SRC, "tamebox", "__init__.py")
    if not os.path.isfile(init):
        sys.stderr.write(f"perfbench: no tamebox sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import tamebox
    import tamebox.cli

    if os.path.dirname(os.path.abspath(tamebox.__file__)) != os.path.dirname(init):
        sys.stderr.write(f"perfbench: tamebox imported from {tamebox.__file__}\n")
        sys.exit(2)
    return tamebox.cli


# -- machine speed -------------------------------------------------------------


def reference_loop():
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


class Speed:
    """Durations of the reference loop, sampled between operations."""

    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def sample(self):
        if time.perf_counter() - self.last < REFERENCE_EVERY_S:
            return
        start = time.perf_counter()
        reference_loop()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def slowdown(self):
        """How many times slower than nominal the machine ran."""
        return statistics.median(self.samples) / REFERENCE_NOMINAL_S


# -- one operation -------------------------------------------------------------


class Outputs:
    """Distinct outputs with their multiplicity; identical outputs of one
    operation are checked once, after the timed region."""

    def __init__(self):
        self.seen = {}
        self.latencies = []
        self.attempted = 0

    def add(self, index, latency, code, stdout, emitted, error):
        key = (index, code, stdout, emitted, error)
        self.seen[key] = self.seen.get(key, 0) + 1
        self.latencies.append(latency)
        self.attempted += 1


def run_op(cli, op, index, outputs, tamper=None):
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(["--deterministic", *op.argv])
    except SystemExit as e:
        code = e.code
    except Exception as e:  # counted as a failed operation
        code = None
        error = f"{type(e).__name__}: {e}"
    latency = time.perf_counter() - start
    stdout = buf.getvalue()
    emitted = None
    if op.emit is not None and os.path.exists(op.emit):
        with open(op.emit, "rb") as fh:
            emitted = fh.read()
    if tamper is not None:
        stdout = tamper(op, stdout)
    outputs.add(index, latency, code, stdout, emitted, error)


def run_rounds(cli, ops, rng, rounds, outputs, speed, tamper=None):
    """Run whole rounds, each in a fresh seeded order, sampling the
    machine's speed between operations; stop early once the run has
    taken MAX_RUN_SECONDS.  Returns the time spent in operations and the
    number of rounds run."""
    groups = []
    for i, op in enumerate(ops):
        if op.follows:
            groups[-1].append(i)
        else:
            groups.append([i])
    start = time.perf_counter()
    before = sum(outputs.latencies)
    done = 0
    while done < rounds and time.perf_counter() - start < MAX_RUN_SECONDS:
        rng.shuffle(groups)
        for group in groups:
            speed.sample()
            for i in group:
                run_op(cli, ops[i], i, outputs, tamper)
        done += 1
    speed.sample()
    return sum(outputs.latencies) - before, done


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def check_outputs(ops, outputs):
    """Check each distinct output once; returns (failures, reasons)."""
    failed = 0
    reasons = []
    for (i, code, stdout, emitted, error), times in outputs.seen.items():
        op = ops[i]
        reason = error
        if reason is None and code != op.expect_code:
            reason = f"exit code {code}, expected {op.expect_code}"
        if reason is None:
            try:
                report = json.loads(stdout.strip().splitlines()[-1])
                reason = op.check(report, emitted)
            except Exception as e:  # a malformed report is a failure
                reason = f"check raised {type(e).__name__}: {e}"
        if reason is not None:
            failed += times
            reasons.append(f"{op.label}: {reason}")
    return failed, reasons


# -- metrics -------------------------------------------------------------------


def tail(latencies):
    """The latency with TAIL_BEYOND samples above it, its percentile and
    the sample count; with fewer samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n > TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
    return xs[-1], 100.0, n


def end_to_end(outputs, failed, setup_s, peak_rss_mb, slowdown):
    """End-to-end metrics with times scaled to nominal machine speed,
    and the notes printed beside them."""
    value, pct, n = tail(outputs.latencies)
    raw = {
        "ops_per_s": (outputs.attempted - failed) / sum(outputs.latencies),
        "op_p50_ms": statistics.median(outputs.latencies) * 1000.0,
        "op_tail_ms": value * 1000.0,
        "setup_s": setup_s,
    }
    metrics = {k: v * slowdown if k == "ops_per_s" else v / slowdown
               for k, v in raw.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    notes = [
        f"op_tail_ms is p{pct:.2f} of {n} samples ({TAIL_BEYOND} beyond it)",
        f"op_fail_ratio {failed / outputs.attempted} ratio "
        f"({failed} of {outputs.attempted})",
        f"machine ran {slowdown:.4f}x slower than nominal; unscaled "
        + ", ".join(f"{k} {v}" for k, v in raw.items()),
    ]
    return metrics, notes


def certificate_counts(outputs):
    """Largest piece count over the slots and moves of emitted
    certificates, and the longest chain."""
    max_pieces = 0
    max_chain = 0
    payloads = {emitted for (_, _, _, emitted, _) in outputs.seen if emitted}
    for data in payloads:
        payload = json.loads(data)["payload"]
        max_chain = max(max_chain, len(payload["chain"]))
        slots = list(payload["final"]["slots"])
        for step in payload["chain"]:
            slots += step["elem"]["slots"] + step["move"]
        for s in slots:
            max_pieces = max(max_pieces, len(s.get("pieces", ())))
    return max_pieces, max_chain


def per_layer(recorder, overhead, cert_counts):
    """The per-layer rows (name, value, unit) of one traced round."""
    from spans import LAYERS

    summary = recorder.summary()
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "tags": {}}

    def s(name):
        return summary.get(name, empty)

    def tag_ms(name, tag):
        return s(name)["tags"].get(tag, [0, 0.0])[1]

    def tag_sum(name):
        return sum(t * c for t, (c, _) in s(name)["tags"].items())

    out = []

    def put(name, value, unit):
        out.append((name, value, unit))

    def calls_ms(name, self_ms=False):
        put(f"{name}.calls", s(name)["calls"], "count")
        put(f"{name}.ms", s(name)["ms"], "ms")
        if self_ms:
            put(f"{name}.self_ms", s(name)["self_ms"], "ms")

    calls_ms("iset.lan_extend", self_ms=True)
    put("iset.lan_extend.n6.ms", tag_ms("iset.lan_extend", 6), "ms")
    put("iset.lan_extend.n7.ms", tag_ms("iset.lan_extend", 7), "ms")
    calls_ms("iset.latching", self_ms=True)
    put("iset.latching.n6.ms", tag_ms("iset.latching", 6), "ms")
    put("iset.latching.n7.ms", tag_ms("iset.latching", 7), "ms")
    calls_ms("iset.day_convolution", self_ms=True)
    calls_ms("iset.faithful_extension")
    put("iset.faithful_extension.levels_added",
        tag_sum("iset.faithful_extension"), "count")
    calls_ms("iset.TruncatedISet.init")
    put("iset.is_flat.direct.ms", tag_ms("iset.is_flat", 1), "ms")
    calls_ms("iset.OmegaColimit.init")
    calls_ms("iset.canonicalize")
    levels = [t for name in ("iset.latching", "iset.lan_extend",
                             "iset.day_convolution")
              for t in s(name)["tags"]]
    put("iset.kernel.max_level", max(levels, default=0), "count")

    calls_ms("sigma.SigmaSet.init")
    put("sigma.SigmaSet.init.points", tag_sum("sigma.SigmaSet.init"), "count")
    calls_ms("sigma.induce")
    calls_ms("sigma.SigmaSet.iso_type")
    put("sigma.point_key.calls", recorder.counts.get("sigma.point_key", 0),
        "count")
    for name, (hits, lookups) in sorted(recorder.cache_deltas().items()):
        put(f"{name}.hit_ratio", hits / lookups if lookups else 0.0, "ratio")
        put(f"{name}.lookups", lookups, "count")

    calls_ms("mset.decompose_table")
    calls_ms("mset.box")
    calls_ms("mset.mset_iso_equal")
    calls_ms("mset.CanonicalTameMSet.elements_up_to")

    calls_ms("injections.QuasiAffineInjection.init", self_ms=True)
    calls_ms("injections.QuasiAffineInjection.compose")
    calls_ms("injections.OperadElement.init")
    calls_ms("injections.OperadElement.precompose")
    put("injections.qa.max_pieces", cert_counts[0], "count")

    calls_ms("opalg.certify_agreement")
    calls_ms("opalg.verify_certificate")
    put("opalg.cert.chain_len.max", cert_counts[1], "count")
    calls_ms("opalg.CommMonoidPresentation.add")

    calls_ms("documents.parse_document")
    calls_ms("documents.serialize_document")
    put("documents.bytes_in", tag_sum("documents.parse_document"), "B")
    put("documents.bytes_out", tag_sum("documents.serialize_document"), "B")
    calls_ms("cli.main")

    for layer in LAYERS:
        put(f"{layer}.self_ms",
            sum(v["self_ms"] for k, v in summary.items()
                if k.split(".", 1)[0] == layer), "ms")

    put("trace.overhead_ops_per_s", overhead, "op/s")
    return out


# -- main ----------------------------------------------------------------------


def environment():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load = " ".join(fh.read().split()[:3])
    except OSError:
        load = "n/a"
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"loadavg {load}")


def setup(workloads, args, workdir):
    """Generate and write the inputs several times and keep the last;
    every pass must give the same input digest."""
    passes = SETUP_PASSES if args.size == "full" else 1
    times = []
    digests = set()
    inputs = None
    for _ in range(passes):
        if os.path.isdir(workdir):
            shutil.rmtree(workdir)
        os.makedirs(workdir)
        t = time.perf_counter()
        inputs = workloads.build(args.workload, args.seed, workdir, args.size)
        times.append(time.perf_counter() - t)
        digests.add(inputs.digest)
    return inputs, statistics.median(times), len(digests) == 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("colimit-deep", "laws-shallow", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the smoke test")
    p.add_argument("--inputs-only", action="store_true",
                   help="generate the inputs, print their digest and stop")
    return p.parse_args(argv)


def main(argv=None, tamper=None):
    args = parse_args(argv)
    cli = import_library()
    import_s = time.perf_counter() - PROCESS_START
    sys.path.insert(0, HERE)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        inputs, gen_s, stable = setup(workloads, args, workdir)
        setup_s = import_s + gen_s
        print(f"# {args.workload} seed {args.seed}: {len(inputs.ops)} operations "
              f"per round, {inputs.documents} documents, {inputs.bytes} B")
        print(f"# inputs sha256 {inputs.digest}")
        if args.inputs_only:
            return 0 if stable else 1
        print(f"# {environment()}")
        rng = random.Random(f"order:{args.seed}")
        outputs = Outputs()
        speed = Speed()
        if args.trace == 0:
            _, rounds = run_rounds(
                cli, inputs.ops, rng, rounds_for(args.workload, args.seconds),
                outputs, speed, tamper)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failed, reasons = check_outputs(inputs.ops, outputs)
            values, notes = end_to_end(outputs, failed, setup_s, peak,
                                       speed.slowdown())
            units = dict(END_TO_END)
            rows = [(k, values[k], units[k]) for k, _ in END_TO_END]
        else:
            from spans import Recorder

            busy, rounds = run_rounds(
                cli, inputs.ops, rng,
                rounds_for(args.workload, args.seconds / 2), outputs, speed,
                tamper)
            untraced_rate = outputs.attempted / busy
            recorder = Recorder()
            recorder.install()
            try:
                traced_busy, _ = run_rounds(cli, inputs.ops, rng, 1, outputs,
                                            speed, tamper)
            finally:
                recorder.uninstall()
            recorder.write(os.path.join(OUT, f"trace-{args.workload}.tsv"))
            failed, reasons = check_outputs(inputs.ops, outputs)
            traced_rate = len(inputs.ops) / traced_busy
            rows = per_layer(recorder, untraced_rate - traced_rate,
                             certificate_counts(outputs))
            level = dict((k, v) for k, v, _ in rows)["iset.kernel.max_level"]
            if level > workloads.MAX_KERNEL_LEVEL:
                reasons.append(f"kernel reached level {level}")
            notes = [f"tracing overhead {untraced_rate - traced_rate:.4f} op/s "
                     f"(untraced {untraced_rate:.4f}, traced {traced_rate:.4f})"]
        for reason in reasons[:20]:
            print(f"# FAILED {reason}")
        print(f"# setup_s {setup_s:.4f} (import {import_s:.4f}, median of "
              f"input generation {gen_s:.4f}); {rounds} rounds")
        for note in notes:
            print(f"# {note}")
        for name, value, unit in rows:
            print(f"{name} {value} {unit}")
        correct = failed == 0 and stable and not reasons
        print(json.dumps({
            "correct": correct,
            "attempted": outputs.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, value, unit in rows},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
