"""The repository's end-to-end benchmark (see ``run.py``).

Importing the package puts the checkout's ``src/`` directory on
``sys.path`` so every module can ``import repro`` without an install.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
