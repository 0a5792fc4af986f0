"""The package imports with only its declared dependencies installed."""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Third-party top-level packages listed in ``[project].dependencies``.
DECLARED = ("numpy",)


def test_import_loads_only_declared_dependencies():
    """A fresh interpreter importing ``repro``, its CLI and a zoo
    workload graph loads no third-party package beyond the declared
    ones, so a clean install of those imports and runs.  Optional
    extras (plotting) are probed, never imported."""
    script = textwrap.dedent(
        f"""
        import sys

        before = set(sys.modules)
        import repro
        import repro.cli
        from repro.workloads.zoo import get_workload

        assert len(get_workload("resnet18")) > 0
        allowed = set(sys.stdlib_module_names) | {{"repro", *{DECLARED!r}}}
        loaded = {{
            name.partition(".")[0]
            for name in set(sys.modules) - before
            if not name.startswith("__")  # aliases such as __mp_main__
        }}
        print(sorted(loaded - allowed - {{m.partition(".")[0] for m in before}}))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
