"""tools/bench_pairs.py, on what it does without running the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_refuses_an_out_without_a_quoted_workload(tmp_path):
    # --out holds a workload, but not orbit-b4, the first one README quotes
    out, readme = tmp_path / "bench.json", tmp_path / "README.md"
    out.write_text(json.dumps({"workloads": {"decide": {}}}))
    text = (ROOT / "README.md").read_text()
    readme.write_text(text)
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
                           "--out", str(out), "--readme", str(readme)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == f"{out}: no orbit-b4 workload, which {readme} quotes\n"
    assert "Traceback" not in proc.stdout + proc.stderr
    assert readme.read_text() == text
