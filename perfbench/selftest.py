"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that every run prints exactly the result keys, that every metric
BENCHMARK.json names is emitted with its unit on every workload, that the
objective-versus-truth check rejects a deliberately worse theta, that the
traced counts repeat exactly for a seed, that a renamed internal loses only
its own metrics (and leaves the yardstick sampler idle, with the reason),
and that a tree without qmele sources makes the benchmark fail without
printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(*args, cwd=ROOT, run=RUN):
    out = subprocess.run([sys.executable, run, *args], cwd=cwd, capture_output=True,
                         text=True, timeout=180)
    return out


def tiny_run(workload, trace, seed=7):
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(spec):
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            report, result = tiny_run(w["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, report["problems"]
            assert result["attempted"] >= 1 and result["failed"] == 0
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(want) ^ set(got), report.get("missing"))
            for name, entry in result["metrics"].items():
                assert isinstance(entry["value"], float), (name, entry)
            if trace == 0:
                for name in ("series_ref_p50", "series_per_s", "series_s_p50", "fail_frac", "series_s_tail"):
                    assert name in report["end_to_end"], name
            print(f"ok  {w['name']} trace {trace}: {len(got)} metrics with units")


def check_counts_repeat():
    first, _ = tiny_run("mc_laplace", 1, seed=11)
    second, result = tiny_run("mc_laplace", 1, seed=11)
    assert first["counts_at_quota"] == second["counts_at_quota"]
    assert result["correct"] is True, second["problems"]
    print("ok  traced counts repeat exactly for one seed")


def check_objective_rejects_worse_theta():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np
    from qmele import (
        FitConfig, G0Mode, InnovationDist, ModelOrders, ParamVector, compute_weights,
        fit_self_weighted, simulate,
    )
    from workloads import objective_not_above_truth

    orders = ModelOrders(1, 0, 1, 1)
    truth = ParamVector.from_theta(orders, np.array([0.0, 0.5, 0.1, 0.18, 0.4]))
    data = simulate(truth, InnovationDist("laplace"), 400, seed=3)
    w = compute_weights(data)
    fit = fit_self_weighted(data, orders, FitConfig(g0_mode=G0Mode.known(0.5)))
    assert objective_not_above_truth(fit.theta_hat.theta, truth, data, w, "qmele")
    worse = truth.theta.copy()
    worse[2] *= 3.0  # alpha0
    assert not objective_not_above_truth(worse, truth, data, w, "qmele")
    print("ok  objective check accepts a fit and rejects a worse theta")


def check_renamed_internal():
    """A refactor that renames a wrapped name loses only its metrics."""
    import re

    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    tree = tempfile.mkdtemp(prefix="renamed-", dir=work)
    try:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tree, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(HERE, os.path.join(tree, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        est = os.path.join(tree, "src", "qmele", "estimation.py")
        with open(est, encoding="utf-8") as fh:
            text = fh.read()
        with open(est, "w", encoding="utf-8") as fh:
            text = text.replace("import minimize\n", "import minimize as _renamed_minimize\n")
            fh.write(re.sub(r"(?<![\w.])minimize\(", "_renamed_minimize(", text))
        out = bench("--workload", "mc_laplace", "--seed", "7", "--seconds", "0.5", "--trace", "1",
                    "--scale", "tiny", cwd=tree, run=os.path.join(tree, "perfbench", "run.py"))
        assert out.returncode == 0, out.stderr
        report, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
        gone = sorted(k for k in report["missing"] if k.startswith("estimation.optimizer."))
        assert len(gone) == 7 and all("qmele.estimation:minimize" in report["missing"][k] for k in gone)
        assert "model.filter_series.calls" in result["metrics"] and result["correct"] is True
        # the untimed yardstick sampler on the same name goes idle, with the reason
        out = bench("--workload", "long_series", "--seed", "7", "--seconds", "0.5", "--trace", "0",
                    "--scale", "tiny", cwd=tree, run=os.path.join(tree, "perfbench", "run.py"))
        assert out.returncode == 0, out.stderr
        report, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
        assert "minimize" in report["yardstick_sampler"]["missing"] and result["correct"] is True
    finally:
        shutil.rmtree(tree)
    print("ok  a renamed internal is reported missing with its reason; the run completes")


def check_bare_tree():
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("--workload", "mc_laplace", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare, run=os.path.join(bare, "perfbench", "run.py"))
        assert out.returncode != 0 and '"correct"' not in out.stdout, out.stdout
    finally:
        shutil.rmtree(bare)
    print("ok  a tree without qmele sources exits", out.returncode, "without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_objective_rejects_worse_theta()
    check_bare_tree()
    check_renamed_internal()
    check_metrics(spec)
    check_counts_repeat()
    print("selftest passed")


if __name__ == "__main__":
    main()
