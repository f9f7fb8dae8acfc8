"""The package loads numpy and scipy.special only, so a fresh process starts fast."""

import subprocess
import sys
from pathlib import Path

import nonmarginal

HEAVY = ("scipy.stats", "scipy.sparse", "scipy.linalg", "scipy.optimize")

PROBE = """
import sys
import nonmarginal, nonmarginal.cli
from nonmarginal import TestSpec, build_groups, connected_components, generate_design
spec = TestSpec(num_covariates=3)
for generator in ("iid_gaussian_bounded", "orthogonalized"):
    connected_components(build_groups(generate_design(50, 3, generator, seed=0), spec, threshold=0.0))
print("\\n".join(sys.modules))
"""


def test_fresh_process_loads_no_heavy_scipy_module():
    """Checks module names after import and a first design, not timings."""
    src = str(Path(nonmarginal.__file__).resolve().parents[1])
    modules = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})" + PROBE],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "nonmarginal.cli" in modules
    assert [m for m in modules if ".".join(m.split(".")[:2]) in HEAVY] == []
