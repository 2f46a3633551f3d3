"""The test session's own settings, run on a throwaway test file in a fresh pytest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_FAILING_PROPERTIES = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_first(x):
    assert x != x


@settings(database=None, max_examples=5)
@given(st.integers())
def test_second(x):
    assert x != x
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # with every warning an error, hypothesis's deprecation warning on a
    # failure was an INTERNALERROR that stopped the run after the first test
    (tmp_path / "test_two.py").write_text(TWO_FAILING_PROPERTIES, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "2 failed" in done.stdout, done.stdout[-2000:]
