"""Elimination outputs stay bit-identical on every benchmark model.

``tools/elimination_digest.py`` hashes the ranks, kernel bases and seeded
solutions of every boundary matrix, every cohomology basis and the Sq^0
coordinates of nine models.  The pinned value is the output of the
column-by-column RREF elimination that the pivot table replaced; a change
that moves any of these outputs must update it on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PINNED_DIGEST = "6d895c30c07e670e508472d4004e1365e643bbf075f76f7d097dc3f9104c4ca5"


def test_elimination_digest_is_pinned():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "elimination_digest.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"digest: {PINNED_DIGEST}"
