"""The declared runtime dependencies match what the runtime imports."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_runtime_entry_points_do_not_import_networkx():
    probe = (
        "import sys\n"
        "import repro.cli, repro.core.system, repro.service.server\n"
        "import repro.repository.federation\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "False"


def _toml_string_list(text: str, key: str) -> list[str]:
    """A one-line ``key = ["a", "b"]`` array (tomllib needs 3.11)."""
    match = re.search(rf"^{key} = (\[.*\])$", text, re.MULTILINE)
    assert match, f"no one-line {key} array in pyproject.toml"
    return ast.literal_eval(match.group(1))


def test_declared_runtime_dependencies():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert _toml_string_list(pyproject, "dependencies") == ["numpy"]
    assert "networkx" in _toml_string_list(pyproject, "test")
