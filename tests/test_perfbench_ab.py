"""tools/perfbench_ab.py: reading perfbench output and the A/B verdict
(the benchmark runs themselves are too slow for tier-1)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import perfbench_ab  # noqa: E402


def _stdout(cpu_s, cycles, digest, correct=True):
    detail = {"workload": "fft-smtp16x2", "digest": digest}
    result = {"correct": correct, "attempted": 4, "failed": 0,
              "metrics": {"cpu_s": {"value": cpu_s, "unit": "s"},
                          "sim_cycles": {"value": cycles,
                                         "unit": "cycles"}}}
    return "\n".join([
        f"cpu_s {cpu_s} s",
        "detail " + json.dumps(detail),
        json.dumps(result),
    ])


def test_parse_output_reads_result_and_digest():
    r = perfbench_ab.parse_output(_stdout(3.5, 41065, "ab" * 32))
    assert r.ok and r.cpu_s == 3.5 and r.sim_cycles == 41065
    assert r.digest == "ab" * 32
    assert not perfbench_ab.parse_output("").ok
    assert not perfbench_ab.parse_output("Traceback: boom").ok
    assert not perfbench_ab.parse_output(
        _stdout(3.5, 41065, "ab", correct=False)).ok


def test_summarize_verdict(capsys):
    same = perfbench_ab.parse_output(_stdout(3.5, 41065, "d1"))
    faster = perfbench_ab.parse_output(_stdout(3.1, 41065, "d1"))
    moved = perfbench_ab.parse_output(_stdout(3.1, 41066, "d2"))
    assert perfbench_ab.summarize([(same, faster), (same, faster)])
    out = capsys.readouterr().out
    assert "-11.4%" in out and "DIFFER" not in out
    assert not perfbench_ab.summarize([(same, moved)])
    assert capsys.readouterr().out.count("DIFFER") == 2
