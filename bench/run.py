"""Benchmark of ``zomo report``, split into three workloads.

Run from the root of a checkout (the ``src`` tree beside ``bench``):

    python3 bench/run.py --workload kummer --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every metric, every workload
    python3 bench/run.py --workload all --write-digests   # re-record outputs

A run measures cold passes over the workload's checks (see ``checks.py``):
each pass empties the package's caches first, as a fresh ``zomo`` process
would see them, and the run repeats passes until ``--seconds`` have passed
(at least one).  Every check's outputs are hashed and compared with
``bench/digests.json``; a check that raises, fails or changes its digest
counts as failed.

``--trace 0`` reports the end-to-end metrics: the median pass time, set-up
time (median of several fresh interpreters importing ``zomo`` and loading its
data), peak resident memory and the share of checks passed.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics of
``tracer.py``, the micro-benchmarks of ``micro.py`` and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the interpreter, core count, source revision, seed and pass times.
With ``--workload all`` the metric names get a ``<workload>.`` prefix, and
``peak_rss_mb`` is the running maximum of the one process.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
WORKLOADS = ("kummer", "curves", "groups_symbolic")
SETUP_RUNS = 5

# What a fresh ``zomo report`` process does before its first check.
SETUP_CODE = """
from importlib import resources
from zomo import catalog, cli, kummer
catalog.load_catalog()
for q in (19, 73, 271):
    kummer.load_golden(q)
for f in sorted((resources.files("zomo") / "data" / "curves").iterdir()):
    cli.parse_curve(f.read_text())
"""


def use_checkout(root):
    """Put the checkout's ``src`` first on the import path; exit with an
    error when the checkout holds no zomo sources."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zomo", "__init__.py")):
        raise SystemExit("error: no zomo sources under %s" % src)
    sys.path.insert(0, src)
    import zomo
    if not os.path.abspath(zomo.__file__).startswith(src + os.sep):
        raise SystemExit("error: imported zomo from %s, not %s"
                         % (zomo.__file__, src))
    return src


def measure_setup(src):
    """Median wall time of fresh interpreters running SETUP_CODE."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_RUNS):
        # no timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which would round the measured time up to the next poll
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                       check=True)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def run_pass(checks, expected, tracer=None):
    """One cold pass over ``checks``; returns (seconds, [(id, actual, ok)]).

    ``ok`` is false when the check raised, reported a failure, or produced
    outputs whose digest differs from ``expected``."""
    from checks import digest, reset_caches
    reset_caches()
    gc.collect()  # no garbage left over from the previous pass
    done = []
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = perf_counter()
        for cid, fn in checks:
            try:
                done.append((cid,) + fn())
            except Exception as exc:
                traceback.print_exc()
                done.append((cid, "error: %s" % exc, False, None))
        seconds = perf_counter() - t0
    results = []
    for cid, actual, ok, outputs in done:
        if ok and digest(outputs) != expected.get(cid):
            print("digest mismatch: %s" % cid, file=sys.stderr)
            ok = False
        results.append((cid, actual, ok))
    return seconds, results


def revision(root, src):
    """The git revision when there is one, and a hash of the sources."""
    rev = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(src, "zomo")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return {"git": rev, "src_sha256": h.hexdigest()[:16]}


def ordered_checks(workload, seed):
    """The workload's checks in the order the seed picks."""
    from zomo import catalog
    from checks import build_workloads
    checks = build_workloads(catalog.load_catalog(), seed)[workload]
    random.Random(seed).shuffle(checks)
    return checks


def measure(workload, seed, seconds, trace, expected):
    """Run one workload; returns (metrics, untraced pass times, results)."""
    checks = ordered_checks(workload, seed)
    times, results = [], []
    if trace:
        from micro import run as run_micro
        from tracer import Tracer
        untraced_s, res = run_pass(checks, expected)
        tracer = Tracer()
        traced_s, res_traced = run_pass(checks, expected, tracer)
        times, results = [untraced_s], res + res_traced
        metrics = tracer.metrics()
        metrics.update(run_micro(seed))
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    else:
        start = perf_counter()
        while not times or perf_counter() - start < seconds:
            secs, res = run_pass(checks, expected)
            times.append(secs)
            results += res
        passed = sum(ok for _, _, ok in results)
        metrics = {
            "wall_s": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MiB"),
            "pass_ratio": (passed / len(results), "ratio"),
        }
    return metrics, times, results


def high_percentile(samples):
    """[percentile, value] for the highest percentile that has at least ten
    samples above it, or None when that percentile is below the median."""
    n = len(samples)
    if n < 20:
        return None
    return [100.0 * (n - 10) / n, sorted(samples)[n - 11]]


def load_expected():
    with open(DIGESTS) as fh:
        return json.load(fh)


def write_digests(seed):
    """Record the digest of every check's outputs in bench/digests.json."""
    from checks import digest, reset_caches
    out = {}
    for workload in WORKLOADS:
        for cid, fn in ordered_checks(workload, seed):
            reset_caches()
            actual, ok, outputs = fn()
            if not ok:
                raise SystemExit("error: %s fails: %s" % (cid, actual))
            out[cid] = digest(outputs)
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(out), DIGESTS))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="record the current outputs as the expected ones")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = use_checkout(root)
    if args.write_digests:
        write_digests(args.seed)
        return 0
    expected = load_expected()
    setup_s = measure_setup(src)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    record = {"python": platform.python_version(),
              "implementation": platform.python_implementation(),
              "nproc": os.cpu_count(), "revision": revision(root, src),
              "seed": args.seed, "seconds": args.seconds, "runs": []}
    combined, attempted, failed = {}, 0, 0
    for workload in workloads:
        for trace in modes:
            metrics, times, results = measure(workload, args.seed,
                                              args.seconds, trace, expected)
            if not trace:
                metrics["setup_s"] = (setup_s, "s")
            attempted += len(results)
            failed += sum(not ok for _, _, ok in results)
            record["runs"].append({
                "workload": workload, "trace": trace, "passes": len(times),
                "pass_s": times, "median_s": statistics.median(times),
                "high_percentile_s": high_percentile(times),
                "pass_spread": ((max(times) - min(times))
                                / statistics.median(times)),
                "failed": sorted({cid for cid, _, ok in results if not ok}),
            })
            for name, (value, unit) in sorted(metrics.items()):
                print("%-9s %-28s %14.6f %s" % (workload, name, value, unit))
                key = name if len(workloads) == 1 else (
                    "%s.%s" % (workload, name))
                combined[key] = {"value": value, "unit": unit}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
