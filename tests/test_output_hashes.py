"""tools/output_hashes.py: one hash per benchmark input, the same every run."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_hashes.py"


def test_output_hashes_repeat():
    runs = [subprocess.run([sys.executable, str(TOOL), "--toy"], capture_output=True,
                           text=True, timeout=300) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 9
    assert all(re.fullmatch(r"\S+ \d+ [0-9a-f]{64}", line) for line in lines)
    assert [line.split()[:2] for line in lines] == (
        [["select-dcbm-1200", str(i)] for i in range(4)]
        + [["cli-select-sbm-3300", str(i)] for i in range(2)]
        + [["sim1-sweep-600", str(i)] for i in range(3)])
    assert runs[1].stdout == runs[0].stdout
