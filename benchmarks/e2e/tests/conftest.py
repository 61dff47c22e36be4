"""Put the benchmark's own modules (plain top-level modules, the way
``run.py`` imports them) on the path.  Run with
``python -m pytest benchmarks/e2e/tests -q`` from the repo root."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
