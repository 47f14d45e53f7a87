import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "op_s", "unit": "s", "better": "lower"},
                       {"name": "rate", "unit": "1/s", "better": "higher"}]}


def result(op_s, rate):
    return {"correct": True, "attempted": 6, "failed": 0,
            "metrics": {"op_s": {"value": op_s, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}}}


class TestWorkloadReport:
    def test_wins_follow_each_metric_direction_and_ties_count_for_neither(self):
        # (base, change) per pair: op_s 2 > 1 and 2 = 2 and 2 < 3; rate 5 < 6, 5 = 5, 5 > 4
        runs = [{"seed": 7 + i, "first": first, "base": result(2.0, 5.0),
                 "change": result(op_s, rate)}
                for i, (first, op_s, rate) in enumerate(
                    [("base", 1.0, 6.0), ("change", 2.0, 5.0), ("base", 3.0, 4.0)])]
        report = bench_pairs.workload_report(SPEC, runs)
        for name in ("op_s", "rate"):
            assert report["metrics"][name]["change_wins"] == 1
            assert report["metrics"][name]["pairs"] == 3
        op_s = report["metrics"]["op_s"]["change"]
        assert op_s["runs"] == [1.0, 2.0, 3.0]
        assert (op_s["q1"], op_s["median"], op_s["q3"]) == pytest.approx((1.5, 2.0, 2.5))
        assert [r["first"] for r in report["runs"]] == ["base", "change", "base"]
        assert report["runs"][1]["change"] == {"correct": True, "attempted": 6, "failed": 0}


class TestMain:
    def test_refuses_a_base_that_is_the_unedited_checkout(self, monkeypatch, tmp_path):
        answers = {"rev-parse": "0" * 40, "status": ""}
        monkeypatch.setattr(bench_pairs, "git", lambda *cmd: answers[cmd[0]])
        monkeypatch.setattr(bench_pairs, "export", lambda *a: pytest.fail("exported"))
        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit, match="nothing to compare"):
            bench_pairs.main(["--first-seed", "1", "--out", str(out)])
        assert not out.exists()
