"""Package-level properties."""

import os
import subprocess
import sys
from pathlib import Path

import alpha_descent


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as a
    # reference and must stay out of the import a user pays for.
    src = str(Path(alpha_descent.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, alpha_descent; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
