"""The engine imports no third-party module that pyproject.toml does not
declare as a dependency (numpy, which only tests and the benchmark use,
included)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = ("vidquery.cli", "vidquery.executor", "vidquery.planner",
          "vidquery.synth")

# the distributions of the top-level modules a fresh interpreter gains by
# importing the engine, next to the ones it starts with
PROBE = f"""
import json, sys
from importlib.metadata import packages_distributions
before = set(sys.modules)
import {", ".join(ENGINE)}
dists = packages_distributions()
names = {{m.partition(".")[0] for m in set(sys.modules) - before}}
print(json.dumps(sorted({{d for n in names for d in dists.get(n, ())}})))
"""


def _declared() -> set[str]:
    """The names in pyproject.toml's `dependencies`, normalised."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)[1]
    return {_normal(re.match(r"[\w.-]+", item)[0])
            for item in re.findall(r'"([^"]+)"', block)}


def _normal(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def test_engine_imports_only_declared_dependencies():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, check=True,
    ).stdout
    imported = {_normal(d) for d in json.loads(out)} - {"vidquery"}
    assert "numpy" not in imported
    assert imported <= _declared(), imported - _declared()
    assert _declared() == {"click", "orjson"}
