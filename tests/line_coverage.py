"""Run the test suite under a line tracer, and print every library line that never runs.

No coverage package is needed: ``sys.settrace`` and ``threading.settrace``
record each line of the ``qrandlab`` package that runs, in the main thread
and in every thread started under the tracer (such as ``cmd_extract``'s
shares).  A line is runnable when the compiled module has bytecode on it.
Lines of a ``raise`` statement are listed apart from the rest: they are
the refusals, and the rest are the branches that no test reaches.

Usage, from the repository root (arguments after ``--`` go to pytest)::

    PYTHONPATH=src python tests/line_coverage.py
    PYTHONPATH=src python tests/line_coverage.py -- tests/test_cli.py

The tracer is installed before the package is imported, so module-level
lines count as run; lines that run only in a subprocess are not seen.
The suite's hypothesis tests draw fresh examples on each run, so the
refusals that they happen to reach can differ from one run to the next.
The script is not a test module, so the suite itself never collects it.
It exits 0 once the traced suite has run, whatever failed.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import sys
import threading
from pathlib import Path

import pytest


def runnable_lines(code) -> set[int]:
    """Lines that hold bytecode in ``code`` or in any code object nested in it;
    a module's line 0 holds only its set-up, which no line event reports."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= runnable_lines(const)
    return lines


def raise_lines(tree: ast.AST) -> set[int]:
    """Every line that a ``raise`` statement spans."""
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def traced_run(package: Path, pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with ``pytest_args`` and return its exit code and the
    (file name, line) pairs that ran under ``package``."""
    prefix = f"{package}/"
    ran: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        # only the package's frames get a line tracer; every other call runs untraced
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("pytest_args", nargs="*", help="passed to pytest after --, such as test paths")
    args = parser.parse_args(argv)

    spec = importlib.util.find_spec("qrandlab")  # finds the package without importing it
    package = Path(spec.submodule_search_locations[0])
    tests = Path(__file__).resolve().parent
    code, ran = traced_run(package, ["-q", "-p", "no:cacheprovider", *(args.pytest_args or [str(tests)])])

    refusals, others = [], []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        unrun = runnable_lines(compile(source, str(path), "exec")) - {line for name, line in ran if name == str(path)}
        raises = raise_lines(ast.parse(source))
        text = source.splitlines()
        for line in sorted(unrun):
            entry = f"  {path.name}:{line}: {text[line - 1].strip()}"
            (refusals if line in raises else others).append(entry)
    print(f"\n{len(refusals) + len(others)} library lines never ran")
    print(f"{len(others)} outside a raise statement:", *others, sep="\n")
    print(f"{len(refusals)} in a raise statement:", *refusals, sep="\n")
    return 0 if code in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(code)


if __name__ == "__main__":
    sys.exit(main())
