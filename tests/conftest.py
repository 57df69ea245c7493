import sys
from importlib.util import find_spec
from pathlib import Path

# Fall back to the checkout's own src/ only when sumsign is not importable
# already, so PYTHONPATH=<other tree>/src tests that other tree.
if find_spec("sumsign") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
