"""The package loads numpy and scipy.special only, so a fresh process starts fast.

Importing it looks up numpy's OpenBLAS thread count but leaves it as it was.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonmarginal
from nonmarginal import _blas

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


# sets the OpenBLAS thread count to 3 before the import, then prints it
THREADS_PROBE = """
import ctypes
import numpy as np
from pathlib import Path
root = Path(np.__file__).parent
(path,) = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
lib = ctypes.CDLL(str(path))
lib.scipy_openblas_set_num_threads64_(3)
import nonmarginal, nonmarginal.cli
print(lib.scipy_openblas_get_num_threads64_())
"""


def _run_fresh(probe: str) -> str:
    src = str(Path(nonmarginal.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})" + probe],
        capture_output=True, text=True, check=True,
    ).stdout


def test_fresh_process_loads_no_heavy_scipy_module():
    """Checks module names after import and a first design, not timings."""
    modules = _run_fresh(PROBE).split()
    assert "nonmarginal.cli" in modules
    assert [m for m in modules if ".".join(m.split(".")[:2]) in HEAVY] == []


def test_numpys_openblas_is_found_when_numpy_names_it():
    """Otherwise one_blas_thread would do nothing without anyone noticing."""
    if not np.__config__.CONFIG["Build Dependencies"]["blas"]["name"].startswith("scipy-openblas"):
        pytest.skip("numpy does not run on its bundled OpenBLAS")
    assert _blas._THREADS is not None


def test_import_leaves_the_blas_thread_count_alone():
    if _blas._THREADS is None:
        pytest.skip("numpy does not run on its bundled OpenBLAS")
    assert _run_fresh(THREADS_PROBE).split() == ["3"]
