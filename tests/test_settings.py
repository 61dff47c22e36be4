"""A failing property test ends in a clean report under the tier-1
settings: ``filterwarnings`` errors on every warning but the
``mypy_extensions`` deprecation pluggy hits while reporting a falsified
hypothesis test, which ended the run in ``INTERNALERROR``."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_falsified_property_test_ends_in_a_clean_report(tmp_path):
    test_file = tmp_path / "test_falsified.py"
    test_file.write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers(0, 10))\n"
        "def test_always_fails(x):\n"
        "    assert x < 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out and "Falsifying example" in out
    assert "1 failed" in out and proc.returncode == 1
