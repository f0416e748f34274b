"""Committed benchmark records keep one shape, so they can be compared."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATED = ("scaled_cpu_s", "setup_s", "peak_rss_mb")


def test_bench_records_share_one_shape():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, "no BENCH_*.json record at the repository root"
    for path in records:
        rec = json.loads(path.read_text())
        for key in ("command", "nproc", "python", "commits", "seeds", "pairs", "medians"):
            assert key in rec, f"{path.name}: missing {key}"
        assert isinstance(rec["nproc"], int) and rec["nproc"] >= 1, path.name
        assert set(rec["commits"]) == {"parent", "change"}, path.name
        assert rec["seeds"] and len(rec["pairs"]) == len(rec["seeds"]), path.name
        assert "built-ladder" in rec["medians"], path.name
        for workload, sides in rec["medians"].items():
            assert set(sides) == {"parent", "change"}, f"{path.name}: {workload}"
            for side, metrics in sides.items():
                want = GATED + (("verify_f1_s",) if workload == "built-ladder" else ())
                for name in want:
                    value = metrics.get(name)
                    assert isinstance(value, (int, float)) and value > 0, (
                        f"{path.name}: {workload} {side} {name} = {value!r}"
                    )
        for pair in rec["pairs"]:
            assert {"seed", "parent", "change"} <= set(pair), path.name
            for side in ("parent", "change"):
                assert set(pair[side]) == set(rec["medians"]), f"{path.name}: {pair['seed']}"
            # both sides reached the same verdicts, and no op failed
            for workload in rec["medians"]:
                where = f"{path.name}: seed {pair['seed']} {workload}"
                parent, change = pair["parent"][workload], pair["change"][workload]
                assert isinstance(parent.get("digest"), str), where
                assert parent["digest"] == change.get("digest"), where
                assert parent.get("failed_ratio") == change.get("failed_ratio") == 0, where
        claim = rec.get("claim")
        if claim is not None:
            # a claimed gain names a metric both sides measured, and its
            # counts of pairs cover every recorded pair
            for side in ("parent", "change"):
                value = rec["medians"].get(claim["workload"], {}).get(side, {}).get(claim["metric"])
                assert isinstance(value, (int, float)), f"{path.name}: claim {side} median"
            assert 0 <= claim["pairs_won"] <= claim["pairs"] == len(rec["pairs"]), path.name
