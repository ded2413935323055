"""Smoke test of tools/fitcheck.py: its records repeat byte for byte and compare reads them back."""

import importlib.util
import json
import pathlib
import re

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

    fitcheck.main(["compare", str(first), str(first)])
    out = capsys.readouterr().out
    assert set(re.findall(r"rise (\S+)", out)) == {"+0.00e+00"}
    identical = re.findall(r"identical (\d+)/(\d+)", out)
    assert len(identical) == 7 and all(same == total for same, total in identical)
    counts = [tuple(map(int, row)) for row in re.findall(r"fits (\d+)  certified (\d+)", out)]
    assert sum(fits for fits, _ in counts) == 32 and sum(cert for _, cert in counts) == 32
    assert set(re.findall(r"uncertified (\d+)", out)) == {"0"}
    assert set(re.findall(r"changed (\d+)", out)) == {"0"}
