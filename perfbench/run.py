"""qmele benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc_laplace --seed 1 --seconds 30 --trace 0

Run from the root of a source tree that holds ``src/qmele``. With
``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics from a run
with spans around the calls into each qmele module. The line before it is
the full report: environment, checks, counts, absent metrics and reasons.
Workloads, metrics and the layer map are described in README.md.
"""

import os

# BLAS and OpenMP pools stay at one thread; numpy reads these at import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
LEDGER = os.path.join(ROOT, ".perfbench_state", "ledger.json")
SETUP_REPEATS = 3
# yardstick seconds (arrays of 1000) on an idle 2-vCPU Xeon; set-up times
# are reported at this speed
NOMINAL_REF_S = 0.05


def import_qmele():
    """Import qmele from this tree's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "qmele", "__init__.py")):
        sys.exit(f"perfbench: no qmele sources under {SRC}")
    sys.path.insert(0, SRC)
    import qmele

    if not os.path.abspath(qmele.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported qmele from {qmele.__file__}, not from {SRC}")
    return qmele


def tree_digest(top):
    """sha256 over the .py files under `top`, names included."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(top)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def reference_s():
    """A fixed pure-numpy task; informational, never used to rescale."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal(200_000)
    m = a[:40_000].reshape(200, 200)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(a)
        m @ m
        np.convolve(a[:20_000], a[:2_000])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(qmele):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qmele": qmele.__version__,
        "git_commit": git_commit(),
        "source_sha256": tree_digest(SRC),
        "benchmark_sha256": tree_digest(HERE),
        "threads_pinned": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
        "reference_s_start": reference_s(),
    }


def set_up(args, workdir, repeats):
    """Set-up seconds of `repeats` fresh interpreters preparing the inputs.

    Returns the median of the walls scaled to the yardstick's nominal
    speed (wall x NOMINAL_REF_S / the yardstick around that set-up), which
    takes out most of the host's drift, and the raw walls.
    """
    import yardstick

    cmd = [sys.executable, os.path.abspath(__file__), "--prepare", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--workdir", workdir]
    walls, scaled = [], []
    ref_before = yardstick.probe()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=170)
        wall = time.perf_counter() - t0
        ref_after = yardstick.probe()
        walls.append(wall)
        scaled.append(wall * NOMINAL_REF_S / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return statistics.median(scaled), walls


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def ledger_check(key, record):
    """Compare with an earlier run of the same workload, seed and source.

    Returns the names of entries that differ; stores entries not yet seen.
    """
    os.makedirs(os.path.dirname(LEDGER), exist_ok=True)
    try:
        with open(LEDGER, encoding="utf-8") as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.setdefault(key, {})
    differ = [name for name, val in record.items() if name in seen and seen[name] != val]
    for name, val in record.items():
        seen.setdefault(name, val)
    tmp = LEDGER + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, LEDGER)
    return differ


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny sizes are for the self-test only")
    p.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    qmele = import_qmele()
    sys.path.insert(0, HERE)
    import metrics
    import tracing
    from workloads import ABOVE_TRUTH, SCALES, WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.prepare:
        workload.prepare(args.seed, args.workdir, args.scale)
        return 0

    env = environment(qmele)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    dump_dir = os.path.join(workdir, "dumps")
    os.makedirs(dump_dir)
    try:
        setup_s, setup_walls = set_up(args, workdir, 1 if args.trace else SETUP_REPEATS)

        tracer = clock = None
        counts_at_quota = []
        quota = SCALES[args.scale]["quota"][args.workload]
        if args.trace:
            wrapper_cost = tracing.wrapper_cost_s()
            tracer = tracing.Tracer(dump_dir).install()

            def after_step(done):
                tracer.merge()
                if done >= quota and not counts_at_quota:
                    counts_at_quota.append((done, tracer.snapshot()))
        else:
            if workload.clock_target:
                clock = tracing.SeriesClock(workload.clock_target, dump_dir).install()
            elif getattr(workload, "sample_target", None):
                clock = tracing.YardstickSampler(workload.sample_target,
                                                 SCALES[args.scale]["long_n"]).install()

            def after_step(done):
                pass

        try:
            run = workload.run(workdir, args.seed, args.seconds, args.scale, after_step, clock=clock)
        finally:
            for hook in (tracer, clock):
                if hook:
                    hook.uninstall()

        outcome = Outcome()
        checked = workload.check(workdir, args.seed, args.scale, outcome)
        problems = dict(checked.get("problems", {}))
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "series": run["series"],
            "units": run["units"],
            "series_s": run["series_s"],
            "attempted": outcome.attempted,
            "failed": len(outcome.failures),
            "failures": outcome.failures[:20],
        }
        record = {}
        if checked.get("digests"):
            record["output_sha256"] = checked["digests"]
        if args.trace:
            quota_series, snap = counts_at_quota[0]
            series_wall = sum(u[0] for u in run["units"])
            q = {"series": run["series"], "quota_series": quota_series, "series_wall_s": series_wall,
                 "top_s": tracer.top_s, "wrapper_cost_s": wrapper_cost}
            values, missing = metrics.per_layer(tracer, snap, q)
            counts = {"calls": dict(sorted(snap.calls.items())),
                      "counters": {k: v for k, v in sorted(snap.counters.items()) if not k.startswith("pool.")}}
            record["counts_at_quota"] = counts
            report.update(counts_at_quota=counts, quota_series=quota_series, missing=missing,
                          missing_names=tracer.missing, wrapper_cost_s=wrapper_cost,
                          layer_share_of_series_wall=metrics.shares(tracer.stats, series_wall))
        else:
            values, e2e_report = metrics.end_to_end(run, outcome, setup_s, peak_rss_mb())
            e2e_report["setup_s_raw"] = {"value": statistics.median(setup_walls), "unit": "s"}
            report.update(end_to_end=e2e_report, setup_walls_s=setup_walls)
            if isinstance(clock, tracing.YardstickSampler):
                report["yardstick_sampler"] = {"target": clock.target, "missing": clock.missing}
        key = "|".join([args.workload, f"seed={args.seed}", f"scale={args.scale}",
                        f"src={env['source_sha256']}", f"bench={env['benchmark_sha256']}"])
        for name in ledger_check(key, record):
            problems[f"repeat:{name}"] = f"{name} differs from an earlier run of this seed and source"
        # a fit the program flags as failed counts in `failed`; one that
        # claims success at a worse point than the truth is a wrong output
        wrong = [f for f in outcome.failures if f.endswith(ABOVE_TRUTH)]
        if wrong:
            problems["fits"] = f"{len(wrong)} fits report convergence above the truth's objective"
        env.update(loadavg_end=os.getloadavg(), reference_s_end=reference_s())
        report.update(problems=problems, env=env)
        print(json.dumps(report, sort_keys=True))
        print(json.dumps({
            "correct": not problems,
            "attempted": outcome.attempted,
            "failed": len(outcome.failures),
            "metrics": values,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
