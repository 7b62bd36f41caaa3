"""Run code in a fresh interpreter, for state that lives once per process."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import giraw

SRC = str(Path(giraw.__file__).resolve().parents[1])


def run_python(code: str) -> str:
    """Stdout of `python -c code` with the giraw sources under test importable."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout
