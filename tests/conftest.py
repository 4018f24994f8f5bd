"""Point the CLI subprocesses the tests start at the in-tree package.

``pythonpath`` in pyproject.toml only reaches the pytest process itself;
``python -m rieszkit`` children find ``src`` through PYTHONPATH.
"""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
