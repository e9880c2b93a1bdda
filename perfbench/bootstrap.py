"""Put the checkout's own ``src/`` first on ``sys.path``, or exit.

The benchmark measures the package source beside it, never an installed
copy, so a directory without ``src/vmmecap`` ends the run with an error and
no result.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "vmmecap" / "__init__.py").is_file():
    sys.exit(f"perfbench: {SRC / 'vmmecap'} not found; run from a repository checkout")
sys.path.insert(0, str(SRC))
