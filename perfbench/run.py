"""Closed-loop benchmark of the polyext command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client in one process, no threads: each
operation is one in-process ``polyext.cli.main(argv)`` call (or, for
``draw``, a draw and the verify of its output) on JSON files generated from
the seed, with stdout captured and checked.  Interpreter start-up is left
out.

``--trace 0`` measures the end-to-end metrics at reference speed: a fixed
pure-Python loop (``reference_time``) runs before and after every operation
and set-up repetition, and each wall time is scaled by the reference loop's
nominal time over the mean of those two timings.  A shared 2-vCPU virtual
machine drifts by +-20% in speed over minutes; the reference follows the
drift, so the scaled times measure the program, not the moment.

``--trace 1`` runs the same set-up, then a fixed set of operations (the
first ``TRACE_ROUNDS`` rounds of the pool, whatever ``--seconds`` says) in
which every operation runs untraced and then again with spans around each
layer's public functions; it reports the per-layer metrics as sums over
that set, so they cover the same inputs on every commit, and checks that
both passes wrote byte-identical outputs.

The last stdout line is the result record; the line before it is the
detailed record (environment, per-kind sample counts and percentiles), also
written under ``perfbench/_out``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
REF_SECONDS = 0.006   # the reference loop's nominal time
SETUP_REPS = 9        # set-up repetitions whose median is setup_s
TAIL_PCT = 75         # latency_tail_ms; the detailed record counts the
                      # samples beyond it
TRACE_ROUNDS = 4      # ladder rounds of the pool the traced run covers


def _import_program():
    """Import polyext from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "polyext", "cli.py")):
        sys.exit(f"perfbench: no polyext sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import polyext.cli
    if not os.path.abspath(polyext.cli.__file__).startswith(src + os.sep):
        sys.exit("perfbench: polyext was imported from outside the checkout")
    # Every module the CLI can reach, so none is first imported in a timed op.
    for mod in ("planar", "witness", "visibility"):
        __import__(f"polyext.{mod}")
    return polyext.cli


def _swap_modules(modules: dict) -> dict:
    """Put ``modules`` in place of every loaded polyext module; return the
    modules taken out."""
    old = {name: mod for name, mod in sys.modules.items()
           if name == "polyext" or name.startswith("polyext.")}
    for name in old:
        del sys.modules[name]
    sys.modules.update(modules)
    return old


# ---------------------------------------------------------------------------
# Running calls.
# ---------------------------------------------------------------------------


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_call(cli, call):
    """Run one CLI call; return (seconds, exit code, stdout, error)."""
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(call.argv)
    except SystemExit as exc:
        rc, error = exc.code, f"SystemExit({exc.code})"
    except Exception as exc:        # a crash is a failed op, not a stop
        rc, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
    elapsed = time.perf_counter() - t0
    return elapsed, rc, buf.getvalue(), error


def check_call(call, rc, out, error):
    if error is not None:
        return error
    try:
        doc = json.loads(out.splitlines()[-1]) if out.strip() else None
    except json.JSONDecodeError:
        doc = None
    try:
        return call.check(rc, doc)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


class Pass:
    """One closed-loop pass: per-op latencies, per-kind call times, output
    digests and failures."""

    def __init__(self):
        self.op_latency: list = []
        self.kind_ms: dict = {}
        self.records: list = []      # (pool index, stdouts and digests)
        self.failures: list = []
        self.failed_ops = 0
        self.busy = 0.0

    def run_op(self, cli, index, op, tracer=None):
        outs, elapsed_op, errors = [], 0.0, []
        for call in op.calls:
            if tracer is not None:
                tracer.enabled = True
            elapsed, rc, out, error = run_call(cli, call)
            if tracer is not None:
                tracer.enabled = False
            elapsed_op += elapsed
            self.kind_ms.setdefault(call.kind, []).append(elapsed * 1e3)
            outs.append(out)
            problem = check_call(call, rc, out, error)
            if problem is None and call.writes:
                try:
                    outs.append(_digest(call.writes))
                except OSError as exc:
                    problem = f"output unreadable: {exc}"
            if problem is not None:
                errors.append(f"{op.label} {call.kind}: {problem}")
                break
        else:
            for call in op.post:
                _, rc, out, error = run_call(cli, call)
                problem = check_call(call, rc, out, error)
                if problem is not None:
                    errors.append(f"{op.label} post-{call.kind}: {problem}")
        self.busy += elapsed_op
        self.op_latency.append(elapsed_op * 1e3)
        self.records.append((index, outs))
        self.failures.extend(errors)
        self.failed_ops += bool(errors)


def reference_time() -> float:
    """Seconds for a fixed loop of the kind of work the program does
    (Fraction arithmetic, dict updates), with the collector off so that the
    heap the program leaves behind cannot change it."""
    gc.disable()
    t0 = time.perf_counter()
    acc, counts = Fraction(0), {}
    for k in range(1, 800):
        acc += Fraction(k, k + 7) * Fraction(3, k + 1)
        counts[k % 97] = counts.get(k % 97, 0) + k
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def at_reference_speed(seconds, ref_before, ref_after):
    return seconds * 2 * REF_SECONDS / (ref_before + ref_after)


def closed_loop(cli, pool, seconds, between=None, n_between=0):
    """Cycle through the pool until ``seconds`` of operation time pass.

    ``between()`` is called ``n_between`` times, spread evenly over the
    operation time; its own time is not operation time.  Returns the pass
    and each op's latency in ms at reference speed.
    """
    p = Pass()
    scaled = []
    i = done = 0
    ref = reference_time()
    while p.busy < seconds:
        if done < n_between and p.busy >= seconds * done / n_between:
            between()
            done += 1
            ref = reference_time()
        p.run_op(cli, i % len(pool), pool[i % len(pool)])
        ref_after = reference_time()
        scaled.append(at_reference_speed(p.op_latency[-1], ref, ref_after))
        ref = ref_after
        i += 1
    return p, scaled


# ---------------------------------------------------------------------------
# Statistics and environment.
# ---------------------------------------------------------------------------


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail(values):
    """The TAIL_PCT percentile and the number of samples beyond it."""
    value = percentile(values, TAIL_PCT)
    return value, sum(1 for v in values if v > value)


def kind_summary(kind_ms):
    out = {}
    for kind, vals in sorted(kind_ms.items()):
        value, beyond = tail(vals)
        out[kind] = {"samples": len(vals), "p50_ms": statistics.median(vals),
                     f"p{TAIL_PCT}_ms": value, "beyond_tail": beyond}
    return out


def git_rev():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "polyext")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------


def setup(workload, seed, workdir):
    """Import the program afresh, generate and write the inputs under
    ``workdir`` and run one untimed op per kind; return the CLI module, the
    pool, the seconds taken and any failures."""
    import random
    from workloads import Files
    t0 = time.perf_counter()
    _swap_modules({})
    cli = _import_program()
    shutil.rmtree(workdir, ignore_errors=True)
    files = Files(workdir)
    pool, warm = workload.build(random.Random(seed), files)
    warm_pass = Pass()
    for op in warm:
        warm_pass.run_op(cli, -1, op)
    return cli, pool, time.perf_counter() - t0, warm_pass.failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_before = os.getloadavg()
    sys.path.insert(0, HERE)
    from workloads import ROUNDS, WORKLOADS
    import tracing
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, tag)

    reference_time()                  # the first call pays for warm-up
    ref_before = reference_time()
    cli, pool, setup_time, failures = setup(workload, args.seed, workdir)
    setup_scaled = [at_reference_speed(setup_time, ref_before,
                                       reference_time())]
    setup_times = [setup_time]
    detail = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "git_rev": git_rev(),
              "src_sha256_16": src_digest(), "load_avg_before": load_before,
              "client": "closed loop, 1 client, 1 process",
              "pool_ops": len(pool)}

    if args.trace == 0:
        # The other set-up repetitions are spread over the timed phase, in
        # a directory of their own, so that setup_s is a median over the
        # same stretch of machine time as the operations.  Each imports the
        # program afresh; the timed ops keep the first import's modules.
        def setup_again():
            first = _swap_modules({})
            ref_before = reference_time()
            _, _, seconds, problems = setup(workload, args.seed,
                                            workdir + "-setup")
            setup_scaled.append(at_reference_speed(seconds, ref_before,
                                                   reference_time()))
            _swap_modules(first)
            gc.collect()        # free the fresh import's modules now
            setup_times.append(seconds)
            failures.extend(problems)
        main_pass, lat = closed_loop(cli, pool, args.seconds, setup_again,
                                     SETUP_REPS - 1)
        shutil.rmtree(workdir + "-setup", ignore_errors=True)
        failures += main_pass.failures
        attempted = len(lat)
        failed = main_pass.failed_ops
        tail_ms, beyond = tail(lat)
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled),
                        "unit": "s"},
            "ops_per_s": {"value": 1e3 * attempted / sum(lat), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
            "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        raw = main_pass.op_latency
        detail.update(tail_percentile=TAIL_PCT, tail_samples_beyond=beyond,
                      op_samples=attempted, busy_s=main_pass.busy,
                      setup_reps_s=setup_times,
                      setup_reps_at_reference_speed_s=setup_scaled,
                      wall_clock={"setup_s": statistics.median(setup_times),
                                  "ops_per_s": attempted / main_pass.busy,
                                  "op_p50_ms": statistics.median(raw),
                                  "latency_tail_ms": tail(raw)[0]},
                      kinds=kind_summary(main_pass.kind_ms))
    else:
        # Each op runs untraced, then traced straight after, so the two
        # passes see the same machine conditions and the same outputs.
        untraced, traced, tracer = Pass(), Pass(), tracing.Tracer()
        for index in range(len(pool) * TRACE_ROUNDS // ROUNDS):
            untraced.run_op(cli, index, pool[index])
            tracer.begin_op(index)
            tracer.install()
            traced.run_op(cli, index, pool[index], tracer)
            tracer.uninstall()
        failures += untraced.failures + traced.failures
        attempted = len(untraced.records) + len(traced.records)
        failed = untraced.failed_ops + traced.failed_ops
        if [r[1] for r in untraced.records] != [r[1] for r in traced.records]:
            failures.append("traced outputs differ from untraced outputs")
        times = tracer.layer_times()
        metrics = tracing.layer_metrics(times, tracer.counts, traced.busy,
                                        untraced.busy, len(traced.records))
        tracer.write(os.path.join(workdir, "spans.jsonl"))
        detail.update(untraced_busy_s=untraced.busy, traced_busy_s=traced.busy,
                      setup_s=setup_time,
                      span_count=len(tracer.spans),
                      span_seconds={k: v for k, v in sorted(times.items())},
                      kinds=kind_summary(untraced.kind_ms),
                      outputs_identical=not any("differ" in f
                                                for f in failures))

    detail.update(attempted=attempted,
                  failed=failed, failed_frac=failed / attempted,
                  failures=failures[:20], load_avg_after=os.getloadavg())
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
