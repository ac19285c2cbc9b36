"""Every lower-layer ``repro`` module can be the first one imported.

A module that only imports after some other module has run hides an
import cycle: a lower layer (routing, the dataplane, the exporters)
reaching up into ``repro.probing`` through a package ``__init__``.
One fresh interpreter imports each module of the lower layers with
every ``repro`` module dropped from ``sys.modules`` first.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

#: The layers everything else builds on, plus the leaf helpers.
LOWER_LAYERS = ("integrity", "net", "obs", "rng", "sim", "topology")

_SCRIPT = """
import importlib, pkgutil, sys
import repro

names = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name.split(".")[1] in {layers!r}
)
for name in names:
    for module in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[module]
    try:
        importlib.import_module(name)
    except ImportError as exc:
        print(f"{{name}}: {{exc}}")
print(f"checked {{len(names)}}")
"""


def test_lower_layer_modules_import_first():
    src = str(Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(layers=LOWER_LAYERS)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    *failures, summary = done.stdout.strip().splitlines()
    assert not failures, "\n".join(failures)
    # The 16 modules of repro.sim and repro.topology among them.
    assert int(summary.split()[1]) >= 30, summary
