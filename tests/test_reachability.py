"""Nothing ships that nothing reaches.

Every module under ``src/repro`` must be reached by ``import`` edges from
a declared root. The walk reads source only (``ast``), never executes it:

* **Roots** — the console script named in ``pyproject.toml``,
  ``repro.__main__``, every module of ``repro.experiments``, every
  ``.py`` file under ``benchmarks/``, and the names in
  ``repro/__init__.py``'s ``_EXPORTS`` (the one public-API list; a module
  kept only as public API gets a name there). ``examples/`` and
  ``tests/`` are not roots.
* **Edges** — ``import a.b`` and absolute or relative ``from … import
  …`` at any depth (function bodies included), and
  ``import_module("<literal>")``.
* ``from pkg import name`` reaches only the submodule that binds
  ``name`` in ``pkg/__init__.py`` — an eager ``from .sub import name``
  or an entry of the package's ``_EXPORTS`` table — or the submodule
  called ``name``. Any other name is the ``__init__``'s own, and reaches
  that ``__init__`` with its imports. Reaching a module marks its parent
  packages present without following their imports.

Import-time side effects are ignored: every registration lives in
``repro/spec/registry.py``, which imports what it registers.
"""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def module_files(src, package):
    """``{dotted module name: path}`` for every ``.py`` under ``package``."""
    files = {}
    for path in sorted((Path(src) / package).rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        files[".".join(parts)] = path
    return files


def _is_package(files, module):
    return files.get(module, Path()).name == "__init__.py"


def _absolute(files, module, level, target):
    """The absolute name of ``from <level dots><target> import``."""
    if not level:
        return target or ""
    base = module.split(".")
    if not _is_package(files, module):
        base.pop()
    if level > 1:
        base = base[:len(base) - level + 1]
    return ".".join([*base, target] if target else base)


def _name_bindings(files, package):
    """``{name: submodule}`` for the names ``package/__init__.py`` binds
    to a submodule: eager ``from .sub import name`` and ``_EXPORTS``."""
    tree = ast.parse(files[package].read_text())
    bindings = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            source = _absolute(files, package, node.level, node.module)
            for alias in node.names:
                bound = alias.asname or alias.name
                sub = f"{source}.{alias.name}"
                bindings[bound] = sub if sub in files else source
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "_EXPORTS"
                      for t in node.targets)):
            for key, value in zip(node.value.keys, node.value.values):
                bindings[key.value] = f"{package}.{value.value}"
    return bindings


def _resolve_from(files, source, name):
    """The module that ``from <source> import <name>`` reaches."""
    if not _is_package(files, source):
        return source
    if f"{source}.{name}" in files:
        return f"{source}.{name}"
    return _name_bindings(files, source).get(name, source)


def import_edges(files, module, path=None):
    """Every module of ``files`` that ``module``'s source (read from
    ``path`` if given) imports, at any depth."""
    edges = set()
    for node in ast.walk(ast.parse((path or files[module]).read_text())):
        if isinstance(node, ast.Import):
            edges.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(files, module, node.level, node.module)
            if source in files:
                edges.update(_resolve_from(files, source, alias.name)
                             for alias in node.names)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id",
                          getattr(node.func, "attr", None)) == "import_module"
              and node.args and isinstance(node.args[0], ast.Constant)):
            edges.add(node.args[0].value)
    return {edge for edge in edges if edge in files}


def unreached(src, package, roots):
    """The modules of ``package`` no import path from ``roots`` reaches."""
    files = module_files(src, package)
    reached, todo = set(), [root for root in roots if root in files]
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        todo.extend(import_edges(files, module) - reached)
    # A module's parent packages run first; their own imports do not.
    for module in list(reached):
        parts = module.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts)))
    return sorted(set(files) - reached)


def console_scripts(pyproject):
    """The ``"module:function"`` targets of ``[project.scripts]``.

    A line parse rather than ``tomllib``, which Python 3.10 lacks."""
    table = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'^\s*[\w.-]+\s*=\s*"([^"]+)"', table, re.MULTILINE)


def repo_roots():
    """The declared roots, as module names under ``src``."""
    files = module_files(SRC, "repro")
    roots = {target.split(":")[0] for target in
             console_scripts((REPO / "pyproject.toml").read_text())}
    roots.add("repro.__main__")
    roots.update(name for name in files
                 if name.startswith("repro.experiments"))
    roots.update(_resolve_from(files, "repro", name)
                 for name in _name_bindings(files, "repro"))
    # A bench is a script, not a module: what it imports is a root.
    for path in sorted((REPO / "benchmarks").rglob("*.py")):
        roots.update(import_edges(files, "", path))
    return roots


def test_every_module_is_reached_from_a_root():
    assert "repro.cli" in repo_roots()
    assert unreached(SRC, "repro", repo_roots()) == []


def test_walker_names_exactly_the_unreached_module(tmp_path):
    def write(relative, source):
        path = tmp_path / "pkg" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))

    write("__init__.py", '_EXPORTS = {"Lazy": "lazy"}\n')
    write("main.py", """
        from .eager import used

        def late():
            from pkg import Lazy
            return Lazy, used
    """)
    write("lazy.py", "from . import leaf\nLazy = leaf\n")
    write("leaf.py", "")
    write("eager/__init__.py",
          "from .bound import used\nfrom .other import spare\n")
    write("eager/bound.py", "used = 1\n")
    write("eager/other.py", "spare = 2\n")
    # main -> eager.bound (eager re-export), and -- from a function body
    # -- Lazy -> lazy (_EXPORTS) -> leaf (relative); eager/__init__ runs
    # ``from .other import spare``, but nothing imports ``spare``.
    assert unreached(tmp_path, "pkg", {"pkg.main"}) == ["pkg.eager.other"]
