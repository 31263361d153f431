"""The demos and the README stay in step with the package's names."""

import ast
import importlib
import inspect
import itertools
import pkgutil
import re
import runpy
from pathlib import Path

import pytest

import semitrotter
from semitrotter import experiments, linalg, splitting
from semitrotter.experiments import build_config, parse_config_text, run_experiment
from semitrotter.splitting import suzuki_plan

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src").rglob("*.py"))
ENV_NAME = re.compile(r"SEMITROTTER_[A-Z_]+")


def _semitrotter_imports(tree):
    """(module, imported name, local name) for each `from semitrotter... import` name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "semitrotter":
            module = importlib.import_module(node.module)
            for alias in node.names:
                yield module, alias.name, alias.asname or alias.name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    # checked statically, so a renamed package name fails here by name, not as a demo's traceback
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    for module, name, _ in _semitrotter_imports(tree):
        assert hasattr(module, name), f"{demo.name}: {module.__name__}.{name}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_keywords_are_parameters(demo):
    # a keyword a demo passes must still be a parameter, also where the demo is not run
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    imported = {local: getattr(module, name) for module, name, local in _semitrotter_imports(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported:
            params = inspect.signature(imported[node.func.id]).parameters
            for keyword in node.keywords:
                if keyword.arg is not None:
                    assert keyword.arg in params, f"{demo.name}:{node.lineno}: {node.func.id}({keyword.arg}=)"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path, monkeypatch):
    # a demo leaves the file its docstring names as "(writes X.svg)", and no other
    writes = re.findall(r"\(writes (\S+)\)", ast.get_docstring(ast.parse(demo.read_text(encoding="utf-8"))))
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert sorted(path.name for path in tmp_path.iterdir()) == writes


def test_readme_library_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = float(capsys.readouterr().out)
    assert printed < 1e-3
    # the same number as the default dt-sweep's CSV, through the same evolution_errors
    (row,) = [
        r for r in run_experiment(build_config("dt-sweep"))
        if (r.p, r.dt, r.metric) == (4, 1 / 16, "observable_error")
    ]
    assert printed == row.value


def test_readme_module_references_resolve():
    # a `module.name` in the README that names a semitrotter submodule must be one of its attributes
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    submodules = {info.name for info in pkgutil.iter_modules(semitrotter.__path__)}
    refs = [(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)", readme) if module in submodules]
    assert refs
    for module, name in refs:
        assert hasattr(importlib.import_module(f"semitrotter.{module}"), name), f"{module}.{name}"


def test_one_norm_route_is_stated_where_the_routes_are_listed():
    # the README's route paragraph and spectral_norm's docstring certify every Gram, and name no size rule
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    routes = next(item for item in readme.split("\n- ") if "certified pipeline" in item)
    for text in (routes, inspect.getdoc(linalg.spectral_norm)):
        text = " ".join(text.split())
        assert "every gram" in text.lower() and re.findall(r"N [≤<] ?\d+", text) == []


def test_trotter_step_lists_the_routes_the_default_sweeps_take():
    # trotter_step's docstring has one bullet per route that _route picks over the default sweeps' cells, and no other
    taken = set()
    for name in ("dt-sweep", "h-sweep"):
        cfg = build_config(name)
        for h, p, dt in itertools.product(cfg.h_values, cfg.orders, cfg.dt_values):
            plan, n = suzuki_plan(p), experiments._model(cfg, h)[0].grid.n
            taken.add(splitting._route(plan, n, round(cfg.t_final / dt), plan.is_palindromic()))
    listed = re.findall(r"^- (\w[\w ]*?)[,:]", inspect.getdoc(splitting.trotter_step), re.MULTILINE)
    assert sorted(listed) == sorted(taken)


def test_readme_config_example_is_the_dt_sweep_default():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    assert build_config("dt-sweep", parse_config_text(block)) == build_config("dt-sweep")


def _env_names_read(tree):
    """Names read as os.environ[...], os.environ.get(...) or os.getenv(...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        elif isinstance(node, ast.Call) and node.args:
            target, key = node.func, node.args[0]
        else:
            continue
        source = ast.unparse(target)
        if source in ("os.environ", "os.environ.get", "os.getenv") and isinstance(key, ast.Constant):
            yield key.value


def test_documented_environment_variables_are_read():
    # a knob that the code no longer reads must not stay documented
    documented = set(ENV_NAME.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    read = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                documented.update(ENV_NAME.findall(ast.get_docstring(node) or ""))
        read.update(_env_names_read(tree))
    assert documented <= read, f"documented but never read: {sorted(documented - read)}"
