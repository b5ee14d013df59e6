"""Every Python file of the package, its tests and its benchmark parses
under the Python 3.10 grammar, the oldest version the CI matrix runs.

This checks grammar only, not library calls, and it only reads the files.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    files = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
