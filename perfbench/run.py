#!/usr/bin/env python3
"""Seeded benchmark of locaut's certified verdicts.

One client, one thread, closed loop: each verdict is decided, compared with
the ground truth of its input and rechecked before the next one starts.

    python3 perfbench/run.py --workload sln-classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sln-witness --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --selftest

Workloads: sln-classify, sln-witness, leibniz-decide, filiform-demo.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it reports
the per-layer metrics of a traced run (see tracer.py) and writes its spans
to .perfbench/ at the root of the checkout.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  README.md explains the metrics,
the workloads and the held-out seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("sln-classify", "sln-witness", "leibniz-decide", "filiform-demo")
DEV_SEED = 1
HELD_OUT_SEED = 7919
SETUP_PROBES = 5

# Every end-to-end metric with its unit.  error_rate is always 0 on a correct
# program, so it is printed and carried by "failed"/"attempted" but is not one
# of the JSON metrics (those must never read 0).
UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "recheck_p50_ms": "ms",
    "recheck_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
}
JSON_METRICS = tuple(k for k in UNITS if k != "error_rate")


class SetupError(Exception):
    """The benchmark cannot run here (missing sources, -O, a set-up probe failed)."""


def _import_program():
    if not (SRC / "locaut" / "__init__.py").is_file():
        raise SetupError(f"no locaut sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import locaut

    if Path(locaut.__file__).resolve().parent != (SRC / "locaut").resolve():
        raise SetupError(f"imported locaut from {locaut.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Run record


def _commit() -> str:
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
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "locaut").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _record(workload, seed, seconds, trace, tiny):
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "python": sys.version.split()[0],
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Closed loop


class Loop:
    """Runs cases one after another and keeps latencies and failures.

    With scaled=True each latency is stored with the speed.scale factor of
    the kernel timings taken right before and right after it; otherwise the
    factor is 1 and no kernel runs.
    """

    def __init__(self, tracer=None, scaled=False):
        self.tracer = tracer
        self.kernel_ms = speed.kernel_ms if scaled else lambda: speed.REF_KERNEL_MS
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.decide_ms = []  # (measured ms, scale)
        self.recheck_ms = []

    def _fail(self, case, what):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{case.cls}: {what}")

    def run_case(self, vid, case):
        tracer = self.tracer
        if tracer is not None:
            tracer.verdict, tracer.phase = vid, "decide"
        self.attempted += 1
        k0 = self.kernel_ms()
        t0 = perf_counter()
        try:
            verdict = case.decide()
        except Exception as exc:  # a raising call is a failed verdict
            self._fail(case, f"decision raised {exc!r}")
            return
        t1 = perf_counter()
        k1 = self.kernel_ms()
        self.decide_ms.append(((t1 - t0) * 1e3, speed.scale(k0, k1)))
        try:
            case.expect(verdict)
        except Exception as exc:  # workloads.Mismatch, or a verdict of the wrong type
            self._fail(case, str(exc))
            return
        if case.recheck is None:
            return
        if tracer is not None:
            tracer.phase = "recheck"
        t2 = perf_counter()
        try:
            case.recheck(verdict)
        except Exception as exc:  # RecheckError or a crash: either way not certified
            self._fail(case, f"recheck raised {exc!r}")
            return
        t3 = perf_counter()
        self.recheck_ms.append(((t3 - t2) * 1e3, speed.scale(k1, self.kernel_ms())))

    def run_round(self, cases):
        t0 = perf_counter()
        for vid, case in enumerate(cases):
            self.run_case(vid, case)
        return perf_counter() - t0

    def scaled_seconds(self):
        """Time spent in timed calls so far, at reference speed."""
        return sum(ms * f for ms, f in self.decide_ms + self.recheck_ms) / 1e3


def _probe_setup(workload: str, tiny: bool, count: int):
    """setup_s samples, each from a fresh interpreter: import locaut, then
    build the workload's models and algebras."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", workload] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["raw_s"]))
    return samples


def _setup_probe_child(workload: str, tiny: bool):
    k0 = speed.median_kernel_ms()
    t0 = perf_counter()
    _import_program()
    import workloads

    workloads.setup(workload, tiny)
    raw = perf_counter() - t0
    scaled = raw * speed.scale(k0, speed.median_kernel_ms())
    print(json.dumps({"setup_s": scaled, "raw_s": raw}))


def _summary(ms):
    """(per second, p50, p90) of latencies in ms; zeros when there are none."""
    if not ms:
        return 0.0, 0.0, 0.0
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return len(ms) / (sum(ms) / 1e3), statistics.median(ms), p90


def measure(workload: str, seed: int, seconds: float, tiny: bool = False):
    """Untraced run: end-to-end metrics plus the lines that describe the run."""
    import workloads

    t0 = perf_counter()
    ctx = workloads.setup(workload, tiny)
    setup_inprocess = perf_counter() - t0
    setup_samples = _probe_setup(workload, tiny, 1 if tiny else SETUP_PROBES)
    t0 = perf_counter()
    pool = workloads.generate(workload, ctx, seed, tiny)
    gen_s = perf_counter() - t0

    loop = Loop(scaled=True)
    rounds = 0
    done = 0.0
    start = perf_counter()
    while True:
        loop.run_round(pool[rounds % len(pool)])
        rounds += 1
        took, done = loop.scaled_seconds() - done, loop.scaled_seconds()
        # Whole rounds only, so every run has the same class mix.  Time is
        # counted at reference speed, so the number of rounds does not depend
        # on how busy the machine is: stop at the round boundary nearest to
        # the requested time.
        if done + took / 2 >= seconds:
            break
    wall = perf_counter() - start

    dec = [ms * f for ms, f in loop.decide_ms]
    rec = [ms * f for ms, f in loop.recheck_ms]
    per_s, p50, p90 = _summary(dec)
    _, r50, r90 = _summary(rec)
    raw_per_s, raw_p50, raw_p90 = _summary([ms for ms, _ in loop.decide_ms])
    scales = sorted(f for _, f in loop.decide_ms) or [1.0]
    values = {
        "setup_s": statistics.median(s for s, _ in setup_samples),
        "verdicts_per_s": per_s,
        "verdict_p50_ms": p50,
        "verdict_p90_ms": p90,
        "recheck_p50_ms": r50,
        "recheck_p90_ms": r90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": loop.failed / loop.attempted,
    }
    counts = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "verdicts_per_s": f"{len(dec)} verdicts in {sum(dec) / 1e3:.3f} s of decision time",
        "verdict_p50_ms": f"n={len(dec)}",
        "verdict_p90_ms": f"n={len(dec)}",
        "recheck_p50_ms": f"n={len(rec)}",
        "recheck_p90_ms": f"n={len(rec)}",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
        "error_rate": f"{loop.failed} failed of {loop.attempted}",
    }
    lines = [
        f"samples verdicts={len(dec)} rechecks={len(rec)} rounds={rounds} "
        f"round_size={len(pool[0])} pool_rounds={len(pool)} setup_probes={len(setup_samples)}",
        f"info wall_s={wall:.3f} generation_s={gen_s:.3f} setup_inprocess_s={setup_inprocess:.4f} "
        f"setup_unscaled_s={[round(r, 4) for _, r in setup_samples]}",
        f"info speed_scale min={scales[0]:.3f} median={statistics.median(scales):.3f} max={scales[-1]:.3f} "
        f"unscaled verdicts_per_s={raw_per_s:.4g} verdict_p50_ms={raw_p50:.4g} verdict_p90_ms={raw_p90:.4g}",
    ]
    lines += [f"metric {k} {values[k]:.6g} {UNITS[k]} ({counts[k]})" for k in UNITS]
    lines += [f"failure {f}" for f in loop.failures]
    return loop, values, lines


def trace_run(workload: str, seed: int, seconds: float, tiny: bool = False):
    """Traced run on the first round of the pool: per-layer metrics.

    Untraced and traced passes over the same round alternate until the time
    is used; the layer metrics come from the first traced pass, and the
    wrappers are only installed while a traced pass (or set-up) runs.
    """
    import workloads

    tracer = tracing.Tracer()
    with tracer.installed():
        ctx = workloads.setup(workload, tiny)
    cases = workloads.generate(workload, ctx, seed, tiny)[0]

    loop = Loop(tracer)
    ratios = []
    layer = spans = None
    start = perf_counter()
    while layer is None or perf_counter() - start < seconds:
        k0 = speed.median_kernel_ms()
        untraced = loop.run_round(cases)
        k1 = speed.median_kernel_ms()
        if layer is not None:
            tracer.reset()
        with tracer.installed():
            traced = loop.run_round(cases)
        k2 = speed.median_kernel_ms()
        # both passes at reference speed, so machine drift between them cancels
        ratios.append(traced * speed.scale(k1, k2) / (untraced * speed.scale(k0, k1)))
        if layer is None:
            layer = tracer.metrics()
            spans = tracer.spans

    counter = tracing.ScalarCounter()
    with counter.installed():
        loop.run_round(cases)

    values = dict(layer)
    values.update(counter.metrics())
    values["trace.overhead"] = statistics.median(ratios)
    tracer.spans = spans
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
    tracer.dump(path, {"workload": workload, "seed": seed, "round_size": len(cases)})
    lines = [
        f"samples traced_round={len(cases)} verdicts traced/untraced pairs={len(ratios)} "
        f"counting_pass=1 spans={len(spans)} (written to {path.relative_to(ROOT)})",
        "note calls and self_ms cover the decide and recheck phases of the first traced round; "
        "*.total_ms covers set-up; exact.* come from a separate counting pass over the same round; "
        "a hit_rate, repeat_share or per_invertible_element whose base is 0 reads 0",
    ]
    return loop, values, lines


# ---------------------------------------------------------------------------


def _result_line(loop, metrics):
    return json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    })


def run_one(workload, seed, seconds, trace, tiny):
    print(f"# perfbench {workload} seed={seed} seconds={seconds} trace={trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in _record(workload, seed, seconds, trace, tiny).items()))
    if trace:
        loop, values, lines = trace_run(workload, seed, seconds, tiny)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        lines += [f"layer {k} {values[k]:.6g} {units[k]}" for k in units]
    else:
        loop, values, lines = measure(workload, seed, seconds, tiny)
        units = {k: UNITS[k] for k in JSON_METRICS}
    for line in lines:
        print(line)
    sys.stdout.flush()
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(_result_line(loop, metrics))


def selftest() -> int:
    """Tiny run of every workload, untraced and traced; fails unless every
    end-to-end metric appears with its unit, error_rate is 0, and the traced
    run reports exactly the per-layer metrics that BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from the runner's")
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if want_e2e != {k: UNITS[k] for k in JSON_METRICS}:
        problems.append("BENCHMARK.json end_to_end differs from the runner's metrics")
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if want_layer != {name: unit for name, unit, _ in tracing.PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from the tracer's metrics")
    for workload in WORKLOAD_NAMES:
        loop, values, lines = measure(workload, DEV_SEED, 1, tiny=True)
        for name, unit in UNITS.items():
            if not any(line.startswith(f"metric {name} ") and f" {unit} (" in line for line in lines):
                problems.append(f"{workload}: {name} [{unit}] not reported")
        if values["error_rate"] != 0 or loop.failed:
            problems.append(f"{workload}: error_rate {values['error_rate']}: {loop.failures}")
        loop, values, _ = trace_run(workload, DEV_SEED, 0, tiny=True)
        missing = set(want_layer) - set(values)
        if missing:
            problems.append(f"{workload}: traced run lacks {sorted(missing)}")
        if loop.failed:
            problems.append(f"{workload}: traced run failed {loop.failures}")
        print(f"selftest {workload}: {'ok' if not problems else 'problems so far'}")
    for p in problems:
        print(f"selftest problem: {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes only, for a quick check")
    parser.add_argument("--selftest", action="store_true", help="tiny run of every workload, traced and not")
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if sys.flags.optimize > 0:
        # src/ guards verdicts with assert; stripping them would pass for a speed-up.
        print("perfbench: refusing to run under python -O", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            _setup_probe_child(args.setup_probe, args.tiny)
            return 0
        _import_program()
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        run_one(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except tracing.LayerMissing as exc:
        print(f"perfbench: traced layer missing: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
