import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_on_two_search_instances(tmp_path, capsys):
    """Two runs of the same code give equal records; a moved residual is
    listed under its check name with exit status 0, a moved status with
    exit status 1."""
    tool = _tool()
    old = tmp_path / "old.json"
    args = ["--workloads", "search", "--seeds", "0", "--instances", "0", "1"]
    assert tool.main(["write", str(old)] + args) == 0
    records = json.loads(old.read_text())
    assert sorted(records) == ["search/seed0/0", "search/seed0/1"]
    new = tmp_path / "new.json"
    assert tool.main(["write", str(new)] + args) == 0
    assert json.loads(new.read_text()) == records
    assert tool.main(["diff", str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == ["2 of 2 reports identical"]

    record = records["search/seed0/1"]
    k = next(k for k, (name, _, _) in enumerate(record["checks"])
             if name == "orbit1.kernel_residual")
    record["checks"][k][2] = 1e-13
    record["sha256"] = "moved"
    new.write_text(json.dumps(records))
    assert tool.main(["diff", str(old), str(new)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 of 2 reports identical"
    assert out[1].startswith("kernel_residual: 1 of ")

    record["checks"][k][1] = "FAIL"
    record["sha256_without_residuals"] = "moved"
    new.write_text(json.dumps(records))
    assert tool.main(["diff", str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["search/seed0/1: differs beyond residuals",
                       "search/seed0/1: orbit1.kernel_residual PASS -> FAIL"]


def test_compare_reports_on_the_defect9_problem_file(tmp_path):
    """The committed defect-9 problem file gives equal records, keyed by its
    path, on two writes."""
    tool = _tool()
    problem = str(TOOL.parent / "problems" / "defect9.json")
    records = []
    for name in ("old.json", "new.json"):
        out = tmp_path / name
        assert tool.main(["write", str(out), "--problem", problem]) == 0
        records.append(json.loads(out.read_text()))
    assert list(records[0]) == [problem]
    assert records[0] == records[1]
