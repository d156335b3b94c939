"""Put this checkout's src/ on PYTHONPATH, so the CLI subprocesses that the
tests start import the same package as the tests do, also under a bare
`python -m pytest` (pyproject.toml's `pythonpath` reaches this process only)."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
