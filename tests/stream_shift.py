"""Run the test suite with every stream of one kind moved, and print the tests that fail.

A stream shift changes which numbers a seed names without changing any
code path, so a test that fails under it either pins a known answer or
passes only on the stream it was written against.  Two kinds of shift:

* ``philox S``: every ``SeededRng`` stream gets the Philox key
  ``[seed, S]`` instead of ``[seed, 0]``;
* ``salt S``: every SHA-256 derivation (``derive_int``, ``sha_words``)
  appends the 4-byte big-endian salt S to ``_derivation_prefix``.

Usage, from the repository root (arguments after ``--`` go to pytest)::

    PYTHONPATH=src python tests/stream_shift.py philox 1
    PYTHONPATH=src python tests/stream_shift.py salt 3 -- tests/test_rng.py

The script is not a test module, so the suite itself never collects it.
It exits 0 once the shifted suite has run, whatever failed.
"""

from __future__ import annotations

import argparse
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from qrandlab import rng

_U32 = (1 << 32) - 1
_U64 = (1 << 64) - 1


def shift_streams(kind: str, shift: int) -> None:
    """Move every stream of ``kind`` in this process by ``shift``."""
    if kind == "philox":

        def generate_state(self, n_words, dtype=np.uint64):
            return np.array([self.seed, shift], dtype=dtype)

        rng._KeySeed.generate_state = generate_state
    else:
        prefix = rng._derivation_prefix
        salt = struct.pack(">I", shift)
        rng._derivation_prefix = lambda seed, function_id, n: prefix(seed, function_id, n) + salt


class _Failures:
    """Pytest plugin that collects the ids of failed tests, set-up and tear-down included."""

    def __init__(self):
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in self.ids:
            self.ids.append(report.nodeid)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("kind", choices=("philox", "salt"))
    parser.add_argument("shift", type=int, help="the Philox key word (64 bits) or the salt (32 bits)")
    parser.add_argument("pytest_args", nargs="*", help="passed to pytest after --, such as test paths")
    args = parser.parse_args(argv)
    if not 0 <= args.shift <= (_U64 if args.kind == "philox" else _U32):
        parser.error(f"{args.kind} shift {args.shift} is out of range")

    shift_streams(args.kind, args.shift)
    failures = _Failures()
    tests = Path(__file__).resolve().parent
    code = pytest.main(["-q", "-p", "no:cacheprovider", *(args.pytest_args or [str(tests)])], plugins=[failures])
    print(f"\n{len(failures.ids)} failed under {args.kind} {args.shift}:")
    print("\n".join(failures.ids))
    return 0 if code in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(code)


if __name__ == "__main__":
    sys.exit(main())
