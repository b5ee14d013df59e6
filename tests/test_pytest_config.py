"""The repository's pytest configuration, applied to a throwaway test file."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_does_not_stop_the_session(tmp_path):
    # Reporting a failing example imports libcst, whose DeprecationWarning
    # must not turn into an internal error under filterwarnings = error
    # and end the session before the next test runs.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(probe)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
