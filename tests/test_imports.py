"""The package loads numpy and scipy.special only, so a fresh process starts fast.

Importing it looks up numpy's OpenBLAS thread count but leaves it as it was.
Every name it exports has a caller inside the package, and every field of its
records has a reader there.
"""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonmarginal
from nonmarginal import _blas

HEAVY = ("scipy.stats", "scipy.sparse", "scipy.linalg", "scipy.optimize")

PACKAGE = Path(nonmarginal.__file__).parent
# called only by the benchmark tracer under bench/, which wraps it by name
BENCH_ONLY = {"build_replicate_posterior"}
# record fields read only by the benchmark tracer under bench/: the sweep count
BENCH_ONLY_FIELDS = {"PosteriorBatch.diagnostics"}

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


def test_every_public_name_has_a_caller_in_the_package():
    """Exports, and public module-level functions and classes, that no module
    of the package reads are code that only tests reach."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    names = {alias.asname or alias.name for node in init.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names |= {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")}
        used |= {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(names - used - BENCH_ONLY) == []


def _calls(node: ast.AST, name: str) -> bool:
    """``node`` is a call of the plain name ``name`` with positional arguments."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name and bool(node.args))


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def test_every_record_field_has_a_reader_in_the_package():
    """A dataclass field counts as read when a package module loads it as an
    attribute, names it in a ``getattr`` with a constant name, or serializes
    its record with ``asdict(self)``; any other field only tests reach."""
    fields, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif _calls(node, "getattr") and isinstance(node.args[1], ast.Constant):
                read.add(node.args[1].value)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                names = [stmt.target.id for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
                fields |= {f"{node.name}.{name}" for name in names}
                if any(_calls(call, "asdict") and isinstance(call.args[0], ast.Name)
                       and call.args[0].id == "self" for call in ast.walk(node)):
                    read |= set(names)
    unread = {f for f in fields if f.split(".")[1] not in read}
    assert sorted(unread - BENCH_ONLY_FIELDS) == []
