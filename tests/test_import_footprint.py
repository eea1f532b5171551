"""``import repro`` stays light: no scipy until a caller needs a fit."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_import_repro_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro, sys; "
            "assert not any(m.startswith('scipy') for m in sys.modules)",
        ],
        env=env,
        check=True,
    )
