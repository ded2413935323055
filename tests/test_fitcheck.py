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
