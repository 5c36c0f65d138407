"""The CLI and demo tests start fresh interpreters; they import this
checkout's package as the test process does (pytest's `pythonpath`
setting), with no install needed."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
