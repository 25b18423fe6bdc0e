import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_stage_exits_0_at_the_smallest_scale(tmp_path):
    # c10 x 0.001: 1,000 events over the c10 users, every stage in its own process.
    script = os.path.join(ROOT, "tools", "stage_peaks.py")
    proc = subprocess.run(
        [sys.executable, script, "--scale", "0.001", "--seed", "5", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "c10 x 0.001: 1000 events, seed 5"
    stages = [line.split()[0] for line in lines[2:]]
    assert stages == ["import", "synth", "backbone", "align", "growth", "report", "fit", "ingest"]
    assert all(float(line.split()[2]) > 0 for line in lines[2:])
    assert (tmp_path / "synth" / "fit.json").exists() and (tmp_path / "ingest" / "events.jsonl").exists()
    # Tree bytes per event: none for the import, growing with each synth-tree
    # stage, and for the last stage, ingest, the size of its tree now.
    assert lines[1].split()[-1] == "disk_B/event"
    disk = {line.split()[0]: line.split()[4] for line in lines[2:]}
    assert disk.pop("import") == "-"
    synth_tree = [int(disk[name]) for name in stages[1:-1]]
    assert synth_tree[0] > 0 and synth_tree == sorted(synth_tree)
    ingest_bytes = sum(f.stat().st_size for f in (tmp_path / "ingest").rglob("*") if f.is_file())
    assert int(disk["ingest"]) == round(ingest_bytes / 1000) > 0
