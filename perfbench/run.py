"""Benchmark for the condexp CLI: one workload, one process, one seed.

    python3 perfbench/run.py --workload regions --seed 1 --seconds 10 --trace 0

Each item is one in-process ``condexp.cli.main(argv)`` call on a fixture file
this script wrote, with stdout captured in memory, so an item covers load,
compute and the JSON report exactly as a user runs it.  The load is a closed
loop: one caller, one thread, the next item starts when the previous one
returns.  The pool of items is fixed per workload (see workloads.py); the
seed fixes the order in which each pass plays it.  Whole passes run until
``--seconds`` have elapsed and at least MIN_ITEMS items were timed.  Time
metrics leave out items stopped by the deadline (see ``item_times``), and
such an item is not played again in the same run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of tracer.py.  Every item goes
through the output gate: report sha256 against manifest.json plus the
workload's semantic checks.  ``--record`` rewrites the workload's manifest
entry from one pass instead (for a deliberate change of the program's output).
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MANIFEST = HERE / "manifest.json"

MIN_ITEMS = 100  # p90 needs ten samples beyond it
# Set-up is repeated at least SETUP_MIN_REPEATS times and for at least
# SETUP_MIN_S seconds; REF_AROUND_SETUP reference samples are taken between
# repetitions.
SETUP_MIN_REPEATS = 4
SETUP_MIN_S = 4.0
REF_AROUND_SETUP = 3
# Per-item CPU-time limit at reference speed (below), enforced by a
# profiling-timer signal on this process.  Each item's timer is armed with
# DEADLINE_S * (mean of the last REF_RECENT reference samples) /
# REF_NOMINAL_S, so the margin holds when the host slows down.  The slowest
# normal item takes under 4 s at reference speed; the limit turns the known
# multi-minute support-enumeration case into a failure instead of letting it
# stretch every run.
DEADLINE_S = 10.0
REF_RECENT = 5

# Machine-speed reference.  The host's speed drifts by tens of percent over
# seconds to minutes, and CPU time drifts with it, so every time metric is
# scaled by REF_NOMINAL_S / (time of reference_loop): the figures read as if
# the machine ran at the speed where the reference takes REF_NOMINAL_S.  The
# reference is timed between items, at most every REF_EVERY_S, outside the
# item timings.  Each item is scaled by the reference interpolated at its
# midpoint; per-layer figures, which are not per item, by the mean of the
# run's samples.
REF_NOMINAL_S = 0.025
REF_EVERY_S = 0.2


class DeadlineExceeded(BaseException):
    """Raised from the timer signal; a BaseException so no library handler
    for ordinary errors can swallow it."""


def _on_deadline(signum, frame):
    raise DeadlineExceeded()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="run one pass and rewrite this workload's manifest entry")
    return p.parse_args(argv)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python task (rational sums, dict updates),
    with the cyclic collector off so the program's heap cannot slow it."""
    gc.disable()
    try:
        t = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 8000):
            total += Fraction(1, i % 97 + 1)
            table[i % 500] = table.get(i % 500, 0) + i
        return time.perf_counter() - t
    finally:
        gc.enable()


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def write_fixtures(workload, items) -> list[list[str]]:
    """Write each item's fixture and return the argv lists that use them."""
    folder = OUT / "fixtures" / workload
    folder.mkdir(parents=True, exist_ok=True)
    argvs = []
    for item in items:
        path = folder / f"{item.id}.json"
        if item.doc is not None:
            path.write_text(json.dumps(item.doc, sort_keys=True))
        argvs.append([str(path) if a == "{fixture}" else a for a in item.argv])
    return argvs


def time_imports() -> float:
    """Seconds a fresh interpreter takes to import what run.py imports
    before set-up (numpy, the CLI, the benchmark's modules)."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            "import numpy, condexp.cli, tracer, workloads; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def measure_setup(workload, once: bool):
    """Time set-up repeatedly: imports in a fresh interpreter, then pool
    generation and fixture writing here.  Each repetition is scaled to
    reference speed by the median of the reference samples taken just
    before and after it; the median, because a window this short has few
    samples and one of them can be a spike.
    Returns (items, argvs, [(raw s, scaled s), ...])."""
    def samples():
        return [reference_loop() for _ in range(REF_AROUND_SETUP)]

    runs, before, t_start = [], samples(), time.perf_counter()
    while True:
        t = time.perf_counter()
        items = workload.items()
        argvs = write_fixtures(workload.name, items)
        raw = time.perf_counter() - t + time_imports()
        after = samples()
        runs.append((raw, raw * REF_NOMINAL_S / statistics.median(before + after)))
        before = after
        if once or (len(runs) >= SETUP_MIN_REPEATS
                    and time.perf_counter() - t_start >= SETUP_MIN_S):
            return items, argvs, runs


def call_item(cli_main, argv, tracer, index, deadline_s):
    """Run one CLI call; return (wall s, cpu s, exit code or failure, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    signal.setitimer(signal.ITIMER_PROF, deadline_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli_main(argv)
            else:
                code = tracer.run_item(index, cli_main, argv)
    except DeadlineExceeded:
        code = "deadline"
    except Exception:
        code = "exception: " + traceback.format_exc(limit=3).replace("\n", " | ")
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.end_item(keep=code != "deadline")
    return wall, cpu, code, out.getvalue()


def max_rational_bits(text: str) -> int:
    """Largest numerator or denominator bit length among a report's rationals."""
    stack, best = [json.loads(text)], 0
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, str):
            num, _, den = node.removeprefix("-").partition("/")
            if num.isdigit() and (den.isdigit() or not den):
                best = max(best, int(num).bit_length(), int(den or 1).bit_length())
    return best


def gate(workload, item, code, stdout):
    """Semantic verdict of one item: (outcome, digest).  outcome is "ok" or
    the first problem found."""
    if not isinstance(code, int):
        return code.split(":")[0], None
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "report is not JSON", digest
    problems = workload.check(report, item)
    expected = item.expect.get("exit", 0)
    if code != expected and not problems:
        problems = [f"exit code {code}, expected {expected}"]
    return (problems[0] if problems else "ok"), digest


def percentile_ms(times, q):
    """Harrell-Davis estimate of the q-th percentile, in ms.

    A Beta-weighted average of all order statistics.  Item times cluster by
    item kind, with steep steps between clusters; the plain sample quantile
    jumps across a step with a few percent of noise on single items, the
    weighted average does not.
    """
    import numpy as np

    x = np.sort(np.asarray(times)) * 1e3
    n = len(x)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max())), [0.0]))
    cdf[-1] = cdf[-2]
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, 200_001), cdf)
    return float(np.dot(np.diff(edges), x))


def item_times(records, factors):
    """(wall s, cpu s) of each item times its factor, for all items but
    those the deadline stopped: the limit sets their time, not the program.
    Those still count in ok_share and in the manifest gate."""
    return [(r[1] * f, r[2] * f) for r, f in zip(records, factors) if r[3] != "deadline"]


def end_to_end(times, setup_s: float, ok_share: float, peak_rss_mb: float):
    walls = [wall for wall, _ in times]
    cpus = [cpu for _, cpu in times]
    return {
        "items_per_s": (len(walls) / sum(walls), "1/s"),
        "item_ms_p50": (percentile_ms(walls, 50), "ms"),
        "item_ms_p90": (percentile_ms(walls, 90), "ms"),
        "cpu_ms_per_item": (sum(cpus) / len(cpus) * 1e3, "ms"),
        "ok_share": (ok_share, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _at_reference_speed(value, unit: str, scale: float):
    """Scale a time (s, ms, s/item) or a rate (1/s) to reference speed."""
    if unit in ("s", "ms", "s/item"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def metadata(args, workload, pool_size, attempted):
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": args.seed,
        "pool_seed": workload.pool_seed,
        "pool_items": pool_size,
        "attempted": attempted,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "deadline_cpu_s_at_reference_speed": DEADLINE_S,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "condexp" / "cli.py").is_file():
        return _fail(f"no condexp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # here, not at the top: its import cost belongs to set-up
    from condexp.cli import main as cli_main

    import tracer as tracing
    import workloads

    import_s = time.perf_counter() - T0
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")

    items, argvs, setup_runs = measure_setup(workload, once=args.record)
    setup_raw_s = statistics.median(raw for raw, _ in setup_runs)
    setup_s = statistics.median(scaled for _, scaled in setup_runs)

    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.is_file() else {}
    expected = manifest.get(workload.name, {})
    if not args.record and (not expected or expected["pool_seed"] != workload.pool_seed):
        return _fail(f"manifest has no entry for {workload.name} pool {workload.pool_seed}")
    expected_items = expected.get("items", {})

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    signal.signal(signal.SIGPROF, _on_deadline)
    rng = random.Random(args.seed)
    order = list(range(len(items)))
    records = []  # (pool index, wall s, cpu s, exit code or failure, stdout)
    loop_t0 = last_ref = time.perf_counter()
    refs, ref_times, starts = [reference_loop()], [0.0], []
    stopped = set()  # pool indices the deadline stopped in this run
    try:
        while True:
            rng.shuffle(order)
            for k in order:
                if k in stopped:
                    continue
                starts.append(time.perf_counter() - loop_t0)
                deadline_s = DEADLINE_S * statistics.fmean(refs[-REF_RECENT:]) / REF_NOMINAL_S
                records.append((k, *call_item(cli_main, argvs[k], tracer, len(records),
                                              deadline_s)))
                if records[-1][3] == "deadline":
                    stopped.add(k)
                if time.perf_counter() - last_ref >= REF_EVERY_S:
                    ref_times.append(time.perf_counter() - loop_t0)
                    refs.append(reference_loop())
                    last_ref = time.perf_counter()
            elapsed = time.perf_counter() - loop_t0
            timed = len(records) - len(stopped)
            if args.record or (elapsed >= args.seconds and timed >= MIN_ITEMS):
                break
    finally:
        if tracer:
            tracer.uninstall()
    scale = REF_NOMINAL_S / statistics.fmean(refs)
    item_scales = REF_NOMINAL_S / numpy.interp(
        [start + r[1] / 2 for start, r in zip(starts, records)], ref_times, refs)
    unscaled = [1.0] * len(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- the output gate (untimed) --------------------------------------------
    verdicts = []  # {"sha256", "outcome"} per record, the manifest's format
    max_bits = 0
    for k, _wall, _cpu, code, stdout in records:
        outcome, digest = gate(workload, items[k], code, stdout)
        verdicts.append({"sha256": digest, "outcome": outcome})
        if digest:
            max_bits = max(max_bits, max_rational_bits(stdout))

    if args.record:
        recorded = {items[k].id: v for (k, *_), v in zip(records, verdicts)}
        manifest[workload.name] = {"pool_seed": workload.pool_seed,
                                   "items": dict(sorted(recorded.items()))}
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        known = sum(v["outcome"] != "ok" for v in recorded.values())
        print(f"recorded {len(recorded)} items for {workload.name} ({known} known failures)")
        return 0

    surprises = [
        (items[k].id, v, expected_items.get(items[k].id))
        for (k, *_), v in zip(records, verdicts)
        if expected_items.get(items[k].id) != v
    ]
    attempted = len(records)
    failed_share = sum(v["outcome"] != "ok" for v in verdicts) / attempted
    ok_share = 1 - failed_share
    if args.trace:
        raw = tracer.layer_metrics()
        metrics = {n: (_at_reference_speed(v, u, scale), u) for n, (v, u) in raw.items()}
        walls = [wall for wall, _ in item_times(records, unscaled)]
        coverage = sum(tracer.total.module_self.values()) / sum(walls)
        for table, factors in ((raw, unscaled), (metrics, item_scales)):
            times = item_times(records, factors)
            table["trace.items_per_s"] = (len(times) / sum(wall for wall, _ in times), "1/s")
            table["trace.self_coverage"] = (coverage, "share")
            table["serialize.report_max_bits"] = (max_bits, "bits")
    else:
        raw = end_to_end(item_times(records, unscaled), setup_raw_s, ok_share, peak_rss_mb)
        metrics = end_to_end(item_times(records, item_scales), setup_s, ok_share, peak_rss_mb)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    meta = metadata(args, workload, len(items), attempted)
    detail = {
        "metadata": meta,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "raw_metrics": {n: {"value": v, "unit": u} for n, (v, u) in raw.items()},
        "reference_s": {"nominal": REF_NOMINAL_S, "mean": statistics.fmean(refs),
                        "samples": refs, "at_s": ref_times},
        "failed_share": failed_share,
        "setup_runs_s": [{"raw": raw_s, "scaled": scaled_s} for raw_s, scaled_s in setup_runs],
        "import_s": import_s,
        "items": [
            {"id": items[k].id, "start_s": start, "wall_s": wall, "cpu_s": cpu,
             "scale": float(f), "outcome": v["outcome"]}
            for (k, wall, cpu, _code, _out), v, start, f in zip(records, verdicts, starts,
                                                               item_scales)
        ],
        "unexpected": surprises,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        tracer.dump(OUT / f"{stem}-spans.json", [items[k].id for k, *_ in records])

    print(f"# {json.dumps(meta, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:14s} {name:48s} {value:14.6g} {unit}")
    print(f"{workload.name:14s} {'failed_share':48s} {failed_share:14.6g} share")
    for item_id, seen, want in surprises[:10]:
        print(f"# unexpected outcome {item_id}: got {seen}, manifest {want}")
    print(json.dumps({
        "correct": not surprises,
        "attempted": attempted,
        "failed": len(surprises),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
