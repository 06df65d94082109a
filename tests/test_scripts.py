import runpy
import sys
from pathlib import Path

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "certificate_demo.py"


def test_certificate_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(DEMO), "--out", str(tmp_path)])
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "good-map certificate (both variants): ok" in out
    assert "labelling certificate: ok" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.tree", "b.tree", "certificate.json"]
