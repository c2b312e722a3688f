"""The field comparison of scripts/compare_outputs.py, on hand-made output trees."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory: Path, files: dict) -> Path:
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


HEADER = "axis,value,est_closed,constraint_met\n"


def test_compare_counts_the_moved_fields_by_name(tmp_path, compare_outputs):
    parent = _write(
        tmp_path / "parent",
        {
            "est_vs_sth_fixed.csv": HEADER + "s_th,0.2,0.5,true\ns_th,0.4,0.7,true\n",
            "sweep_mc_sth_fixed.csv": HEADER + "s_th,0.2,0.5,true\n",
            "opt.json": json.dumps({"est": 0.5, "rates": {"r_b": 3.0, "r_e": 1.0}, "method": "a"}),
            "validate.txt": "PASS sop closed=0.5\nresult: PASS\n",
            "same.csv": HEADER,
            "gone.json": "{}",
        },
    )
    change = _write(
        tmp_path / "change",
        {
            "est_vs_sth_fixed.csv": HEADER + "s_th,0.2,0.5,false\ns_th,0.4,0.7,false\n",
            "sweep_mc_sth_fixed.csv": HEADER + "s_th,0.2,0.5,false\n",
            "opt.json": json.dumps({"est": 0.25, "rates": {"r_b": 3.0, "r_e": 1.0}, "method": "b"}),
            "validate.txt": "PASS sop closed=0.4\nresult: PASS\n",
            "same.csv": HEADER,
        },
    )
    diffs, files, largest, moved = compare_outputs.compare(parent, change)
    assert files == {
        "est_vs_sth_fixed.csv", "sweep_mc_sth_fixed.csv", "opt.json", "validate.txt", "gone.json"
    }
    assert moved == {"constraint_met": 3, "est": 1, "method": 1, "line": 1}
    assert [name for name, _ in moved.most_common(1)] == ["constraint_met"]
    assert "est_vs_sth_fixed.csv: row 2 constraint_met: 'true' -> 'false'" in diffs
    assert "gone.json: only in parent" in diffs
    assert largest == {"solver": 0.5}
