"""The repository's pytest settings, run on a throwaway test file."""

import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # With warnings as errors, Hypothesis's failure-patch writer imports
    # libcst, whose DeprecationWarning stopped pytest with INTERNALERROR
    # (exit 3) before the remaining tests ran.
    (tmp_path / "test_two.py").write_text(textwrap.dedent(
        """
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(n):
            assert n < 0


        def test_passes():
            pass
        """
    ))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        capture_output=True,
        cwd=tmp_path,
        text=True,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr, result.stdout
    assert "1 failed, 1 passed" in result.stdout, result.stdout
    assert result.returncode == 1
