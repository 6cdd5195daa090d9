"""A RuntimeWarning raised in gexpect fails the test that raised it.

numpy warns where it overflows or computes an invalid value; a test that
means to meet one asserts it with ``pytest.warns``.  The filter is set here,
not in ``pyproject.toml``, so that it holds for ``tests/`` alone: the
benchmark's own checks run overflowing ops in-process on purpose.
"""
import warnings

import pytest


@pytest.fixture(autouse=True)
def _runtime_warnings_from_gexpect_are_errors():
    warnings.filterwarnings("error", category=RuntimeWarning, module="gexpect")
