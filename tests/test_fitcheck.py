"""Smoke test of tools/fitcheck.py: digest runs, its records repeat byte for byte and compare
reads them back."""

import importlib.util
import json
import pathlib
import re

import numpy as np

SPEC = importlib.util.spec_from_file_location(
    "fitcheck", pathlib.Path(__file__).resolve().parents[1] / "tools" / "fitcheck.py"
)
fitcheck = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(fitcheck)


def test_fitcheck_records_repeat_and_compare_to_themselves(tmp_path, capsys):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    fitcheck.main(["record", "bench:700:701", str(first)])
    fitcheck.main(["record", "bench:700:701", str(second)])
    assert first.read_bytes() == second.read_bytes()
    records = [json.loads(line) for line in first.read_text().splitlines()]
    # 16 Laplace sw_qmele fits with local_qmele; 8 ARMA(1,1) paths, sw_qmele alone and sw_qmle with local_qmle
    assert len(records) == 32
    assert sum(r["local"] is not None for r in records) == 24

    # R = 2 replications per design are the first two of the quota's 8, in the same order
    two = tmp_path / "two.jsonl"
    fitcheck.main(["record", "bench:700:701:2", str(two)])
    seeds, expected = {}, []
    for line, r in zip(first.read_text().splitlines(), records):
        kept = seeds.setdefault(r["design"], [])
        if r["seed"] not in kept and len(kept) < 2:
            kept.append(r["seed"])
        if r["seed"] in kept:
            expected.append(line)
    assert len(expected) == 8 and two.read_text().splitlines() == expected

    fitcheck.main(["compare", str(first), str(first)])
    out = capsys.readouterr().out
    assert set(re.findall(r"rise (\S+)", out)) == {"+0.00e+00"}
    identical = re.findall(r"identical (\d+)/(\d+)", out)
    assert len(identical) == 7 and all(same == total for same, total in identical)
    counts = [tuple(map(int, row)) for row in re.findall(r"fits (\d+)  certified (\d+)", out)]
    assert sum(fits for fits, _ in counts) == 32 and sum(cert for _, cert in counts) == 32
    assert set(re.findall(r"uncertified (\d+)", out)) == {"0"}
    assert set(re.findall(r"changed (\d+)", out)) == {"0"}
    assert set(re.findall(r"above truth (\d+)", out)) == {"0"}

    # a converged fit above the criterion at the truth is counted, whatever its SEs
    assert all("truth" in r for r in records)
    raised = dict(records[5], objective=records[5]["truth"] + 1e-6, se=[float("nan")] * 5)
    assert raised["converged"] and fitcheck.above_truth([raised, *records]) == 1
    worse = tmp_path / "worse.jsonl"
    worse.write_text("".join(json.dumps(r) + "\n" for r in [*records[:5], raised, *records[6:]]))
    fitcheck.main(["compare", str(worse), str(first)])
    assert sum(map(int, re.findall(r"above truth (\d+)", capsys.readouterr().out))) == 1


def test_fitcheck_records_and_counts_a_fit_that_raises(tmp_path, capsys, monkeypatch):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    fitcheck.main(["record", "bench:700:701:2", str(good)])
    real, calls = fitcheck.fit_self_weighted, []

    def first_raises(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(*args, **kwargs)

    monkeypatch.setattr(fitcheck, "fit_self_weighted", first_raises)
    fitcheck.main(["record", "bench:700:701:2", str(bad)])
    records = [json.loads(line) for line in bad.read_text().splitlines()]
    assert records[0]["status"] == "raised LinAlgError: Singular matrix" and "theta" not in records[0]
    assert good.read_text().splitlines()[1:] == bad.read_text().splitlines()[1:]
    # the path that raised at OLD alone is counted as raised and left out of the rest
    fitcheck.main(["compare", str(good), str(bad)])
    out = capsys.readouterr().out
    assert re.findall(r"raised (\d+)->(\d+)", out) == [("1", "0")] + [("0", "0")] * 3
    assert re.findall(r"  fits (\d+)", out) == ["1", "2", "2", "2"]
    # a design whose every fit raised is counted too
    calls.clear()
    fitcheck.main(["record", "bench:700:701:1", str(bad)])
    fitcheck.main(["compare", str(bad), str(bad)])
    out = capsys.readouterr().out
    lines = out.split("\n")
    assert lines[0] == "laplace_finite" and re.match(r" +fits 0 .* raised 1->1$", lines[1])


def test_fitcheck_digest_prints_one_sha256(capsys):
    # the value is pinned in CHANGES.md, not here: it depends on the machine's floating point
    fitcheck.main(["digest"])
    assert re.fullmatch(r"[0-9a-f]{64}\n", capsys.readouterr().out)


def test_fitcheck_compare_counts_objective_rises_and_drops(tmp_path, capsys):
    def fit(seed, objective, certified, theta=(0.0, 0.5)):
        return {"design": "d", "bench": None, "seed": seed, "criterion": "qmele", "orders": [1, 0, 0, 0],
                "theta": list(theta), "se": [0.1, 0.1], "objective": objective, "truth": 2.0, "nfev": 10,
                "iterations": 5, "starts": 1, "converged": True, "status": "ok", "local": None,
                "certificate": {"active": 2, "max_s": 0.5, "kkt": 0.0, "pivots": 0, "certified": certified}}

    # (seed, OLD objective, NEW objective, certified at OLD, at NEW)
    cases = [(1, 1.0, 1.0 + 2**-38, True, True),  # a rise of 3.6e-12, certified at both
             (2, 1.0, 1.0 - 2**-36, True, True),  # a drop of 1.5e-11
             (3, 1.0, 1.0 + 2**-42, True, True),  # 2.3e-13: rounding, not counted
             (4, 1.0, 1.0 + 2**-10, False, False),  # a rise of 9.8e-4, listed
             (5, 1.0, 1.0 - 2**-20, False, True)]  # a drop of 9.5e-7, certified at NEW alone
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("".join(json.dumps(fit(s, before, c_old)) + "\n" for s, before, _, c_old, _ in cases))
    new.write_text("".join(json.dumps(fit(s, after, c_new, (0.0, 0.5 + 0.05 * (s == 4)))) + "\n"
                           for s, _, after, _, c_new in cases))
    fitcheck.main(["compare", str(new), str(old)])
    out = capsys.readouterr().out.splitlines()
    moves = ("objective moves beyond 1e-12: certified at both rises 1 (+3.64e-12) drops 1 (-1.46e-11); "
             "rest rises 1 (+9.77e-04) drops 1 (-9.54e-07)")
    assert out[2:4] == [" " * 15 + moves, " " * 15 + "rises above 1e-09: 4 +9.77e-04 (0.50 SE)"]
    assert out[5] == " " * 15 + "uncertified: 4"
    assert out[6:] == ["all designs", f"  sw_qmele     {moves}"]
