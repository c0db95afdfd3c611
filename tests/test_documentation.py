"""Documentation meta-tests: the library's doc obligations hold.

Deliverable discipline as tests: every module, public class and
public function in ``repro`` carries a docstring, and the prose
artifacts (README, DESIGN, EXPERIMENTS, LANGUAGE) stay consistent
with the code they describe.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")


def _walk_modules():
    for module_info in pkgutil.walk_packages(
            [SRC_ROOT], prefix="repro."):
        yield module_info.name


ALL_MODULES = sorted(_walk_modules())

EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")
EXAMPLES = sorted(name for name in os.listdir(EXAMPLES_DIR)
                  if name.endswith(".py"))


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), \
        f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_public_defs_have_docstrings(module_name):
    """Every public class/function defined at module top level (and
    every public method) must carry a docstring."""
    module = importlib.import_module(module_name)
    path = module.__file__
    tree = ast.parse(open(path, encoding="utf-8").read())
    missing = []

    def check_def(node, owner=""):
        if node.name.startswith("_"):
            return
        if not ast.get_docstring(node):
            missing.append(f"{owner}{node.name}")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            check_def(node)
        elif isinstance(node, ast.ClassDef):
            check_def(node)
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    # dataclass/test-style simple accessors are still
                    # required to document themselves
                    check_def(child, owner=f"{node.name}.")
    assert not missing, \
        f"{module_name}: missing docstrings on {missing}"


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    """Each example runs to completion; four of them assert that the
    eBPF and SafeLang frameworks agree, so exit 0 is their check."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]


class TestProseConsistency:
    def read(self, name):
        with open(os.path.join(REPO_ROOT, name), encoding="utf-8") as f:
            return f.read()

    def test_design_lists_every_experiment_bench(self):
        design = self.read("DESIGN.md")
        bench_dir = os.path.join(REPO_ROOT, "benchmarks")
        for bench in sorted(os.listdir(bench_dir)):
            if bench.startswith("test_bench_fig") or \
                    bench.startswith("test_bench_table"):
                assert bench in design, \
                    f"DESIGN.md does not reference {bench}"

    def test_experiments_md_covers_all_figures_and_tables(self):
        text = self.read("EXPERIMENTS.md")
        for artifact in ("Figure 2", "Figure 3", "Figure 4",
                         "Table 1", "Table 2", "Figures 1 & 5"):
            assert artifact in text

    def test_readme_examples_exist(self):
        readme = self.read("README.md")
        examples_dir = os.path.join(REPO_ROOT, "examples")
        for line in readme.splitlines():
            if line.startswith("| `") and ".py" in line:
                script = line.split("`")[1]
                assert os.path.exists(
                    os.path.join(examples_dir, script)), script

    def test_language_reference_matches_kcrate(self):
        from repro.core.kcrate.api import build_api_table
        reference = self.read("docs/LANGUAGE.md")
        table = build_api_table()
        for fn_name in ("map_lookup", "sk_lookup_tcp", "spin_lock",
                        "task_storage_get", "sys_map_update",
                        "vec_new"):
            assert fn_name in table.functions
            assert fn_name in reference

    def test_version_consistent(self):
        pyproject = self.read("pyproject.toml")
        assert f'version = "{repro.__version__}"' in pyproject
