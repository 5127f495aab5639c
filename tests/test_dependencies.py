"""The package runs on numpy alone: importing it and running the CLI paths
that use information quantities and rank correlations loads no scipy. Its
modules import each other at module level only."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import signalgames
from signalgames import InputSpace, LabelMap, MessageSpace, Protocol, io

# run in a fresh interpreter, so no module the test suite loaded counts
SCRIPT = """
import json, sys
import signalgames
from signalgames import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_cli_runs_without_scipy(tmp_path):
    rng = np.random.default_rng(0)
    n = 40
    space = InputSpace.uniform(rng.normal(size=(n, 2)))
    shape = LabelMap([f"s{v}" for v in rng.integers(0, 3, size=n)], "shape")
    color = LabelMap([f"c{v}" for v in rng.integers(0, 2, size=n)], "color")
    io.save_input_space(tmp_path / "space.csv", space, [shape, color])
    messages = MessageSpace.full_code(3, 2)
    io.save_protocol(tmp_path / "protocol.csv",
                     Protocol(rng.integers(0, messages.size, size=n),
                              messages.size), messages)
    out = tmp_path / "out"
    runs = [
        ["analyze", "--input", str(tmp_path / "space.csv"), "--protocol",
         str(tmp_path / "protocol.csv"), "--vocab", "3", "--out",
         str(out / "analyze")],
        ["verify", "--lemma", "a3", "--instances", "20", "--out",
         str(out / "a3")],
    ]
    src = str(Path(signalgames.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(runs)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["scipy"] == []
    report = json.loads((out / "analyze" / "report.json").read_text())
    assert isinstance(report["topsim"], float)
    assert isinstance(report["posdis"], float)
    verdict = json.loads((out / "a3" / "verdict.json").read_text())
    assert verdict["verdict"] is True


def test_package_imports_sit_at_module_level():
    # the modules import each other without cycles (core -> objectives ->
    # games -> the rest), so no function body needs to import from the
    # package; standard-library imports there (the thread pool, which
    # `import signalgames` must not load) are exempt
    def from_package(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or (node.module or "").split(".")[0] \
                == "signalgames"
        return isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "signalgames"
            for alias in node.names)

    inside = []
    for path in sorted(Path(signalgames.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside += [(path.stem, func.name, node.lineno)
                   for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                   for node in ast.walk(func) if from_package(node)]
    assert inside == []
