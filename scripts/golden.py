"""Recompute the expectations of ``tests/test_golden.py``.

Runs each golden recipe on the kernel path this machine uses and writes
``tests/golden.json``: the sha256 of each output together with the
platform and the numpy and scipy series. Run it only when an output is
meant to change, and say why in the commit; the tests then check the
numpy kernels against the same hashes.

    PYTHONPATH=src python scripts/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    import test_golden

    env = test_golden.environment()
    golden = {}
    for name, recipe in sorted(test_golden.RECIPES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            digest = hashlib.sha256(recipe(Path(tmp))).hexdigest()
        golden[name] = {"sha256": digest, **env}
        print(f"{name}: {digest}")
    test_golden.GOLDEN.write_text(json.dumps(golden, indent=2) + "\n",
                                  encoding="utf-8")
    print(f"written to {test_golden.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
