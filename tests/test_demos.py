"""Every demo script, and the README's Quick start, runs to completion. Each runs
in its own subprocess inside a temporary directory, since demo 05 writes
``demo_output/`` into its working directory."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))
_README = _ROOT / "README.md"


def _quick_start(directory: Path) -> Path:
    """The README's Quick start code block, written to a script in ``directory``."""
    text = _README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    script = directory / "quick_start.py"
    script.write_text(text.split("```python\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    return script


@pytest.mark.parametrize("demo", _DEMOS + [_README],
                         ids=[path.stem for path in _DEMOS + [_README]])
def test_demo_exits_zero(demo, tmp_path):
    script = _quick_start(tmp_path) if demo == _README else demo
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
