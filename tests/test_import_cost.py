"""A process loads what it runs.

Import cost is behaviour here: every pool worker, fleet worker and
one-shot CLI call pays it. The subprocess cases pin *which modules* a
fresh interpreter ends up holding (names, never seconds); the in-process
cases pin the contract of the three lazy package surfaces
(:func:`repro._util.lazy_exports`).
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.experiments
import repro.store

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_child(code, *extra_paths):
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*extra_paths, SRC])
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def assert_absent(modules, names):
    loaded = [name for name in names if name in modules]
    assert not loaded, f"imported but not used: {loaded}"


# -- which modules a fresh process holds ------------------------------------- #

def test_worker_module_set_leaves_numpy_and_the_drivers_out():
    # What every e2e child, pool worker and campaign parent imports.
    modules = run_child("""
        import json, sys
        import repro.spec.vectorized, repro.experiments.pool, repro.store
        print(json.dumps(sorted(sys.modules)))
    """)
    assert "repro.experiments.pool" in modules
    assert_absent(modules, [
        "numpy", "sqlite3", "repro.experiments.report",
        "repro.experiments.table1", "repro.store.merge",
    ])


def test_one_gossip_cell_loads_no_other_subcommand():
    modules = run_child("""
        import contextlib, io, json, sys
        import repro.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = repro.cli.main(["gossip", "--algorithm", "ears", "-n", "16"])
        assert code == 0, code
        print(json.dumps(sorted(sys.modules)))
    """)
    assert "repro.api" in modules
    assert_absent(modules, [
        # loaded by the eager CLI and package surfaces this replaced
        "sqlite3", "repro.store.merge", "repro.experiments.report",
        "repro.experiments.table1", "repro.experiments.grid",
        "repro.workloads.sweeps",
        # never loaded by a single cell, before or after
        "numpy", "multiprocessing", "repro.fleet", "repro.faults",
        # registered as an adversary, imported only by its factory
        "repro.adversary.lower_bound",
    ])


BATCH_SPEC = ('RunSpec(kind="gossip", algorithm="ears", n=16, f=0, d=2, '
              'delta=4, seed=3, engine="batch")')


def test_a_batch_spec_imports_numpy_and_runs_on_the_batch_engine():
    pytest.importorskip("numpy")
    out = run_child(f"""
        import json, sys
        from repro.spec.builder import execute
        from repro.spec.runspec import RunSpec
        from repro.spec.vectorized import run_batch_specs
        from repro.store.base import metrics_of
        spec = {BATCH_SPEC}
        before = "numpy" in sys.modules
        run = execute(spec)
        print(json.dumps({{
            "before": before, "after": "numpy" in sys.modules,
            "scalar_sim": run.sim is not None,
            "same": metrics_of(run) == metrics_of(run_batch_specs([spec])[0]),
        }}))
    """)
    assert out == {"before": False, "after": True, "scalar_sim": False,
                   "same": True}


FALLBACK = f"""
    import json, sys
    from repro.sim.batch import HAVE_NUMPY
    from repro.spec.builder import execute
    from repro.spec.runspec import RunSpec
    from repro.spec.vectorized import batch_ineligibility
    from repro.store.base import metrics_of
    spec = {BATCH_SPEC}
    run = execute(spec)
    print(json.dumps({{
        "have_numpy": HAVE_NUMPY, "reason": batch_ineligibility(spec),
        "scalar_sim": run.sim is not None,
        "same": metrics_of(run)
                == metrics_of(execute(spec.replace(engine="auto"))),
    }}))
"""


def test_a_hidden_numpy_means_the_scalar_fallback():
    out = run_child('import sys; sys.modules["numpy"] = None\n'
                    + textwrap.dedent(FALLBACK))
    assert out == {"have_numpy": False, "reason": "numpy is not available",
                   "scalar_sim": True, "same": True}


def test_a_numpy_that_is_found_but_does_not_import_falls_back_too(tmp_path):
    broken = tmp_path / "numpy"
    broken.mkdir()
    (broken / "__init__.py").write_text(
        'raise ImportError("numpy: broken install")\n')
    out = run_child(FALLBACK, str(tmp_path))
    assert out["have_numpy"] is True  # find_spec sees it; nobody imported it
    assert out["reason"] == ("numpy is not available "
                             "(numpy: broken install)")
    assert out["scalar_sim"] and out["same"]


# -- the lazy-surface contract ----------------------------------------------- #

LAZY_PACKAGES = [repro, repro.experiments, repro.store]
lazy = pytest.mark.parametrize("pkg", LAZY_PACKAGES,
                               ids=[pkg.__name__ for pkg in LAZY_PACKAGES])


@lazy
def test_every_public_name_is_the_submodules_object(pkg):
    assert set(pkg._EXPORTS) <= set(pkg.__all__)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        if name in pkg._EXPORTS:
            home = importlib.import_module(
                f"{pkg.__name__}.{pkg._EXPORTS[name]}")
            assert value is getattr(home, name), name
            # ... and the submodule answers to its own name as well.
            assert getattr(pkg, pkg._EXPORTS[name]) is home


@lazy
def test_dir_lists_every_public_name(pkg):
    assert set(dir(pkg)) >= set(pkg.__all__)


@lazy
def test_star_import_works(pkg):
    namespace = {}
    exec(f"from {pkg.__name__} import *", namespace)
    assert set(namespace) >= set(pkg.__all__) - {"__version__"}


@lazy
def test_unknown_name_raises_attribute_error_naming_the_package(pkg):
    with pytest.raises(AttributeError, match=repr(pkg.__name__)):
        pkg.no_such_name
    with pytest.raises(AttributeError, match=repr(pkg.__name__)):
        pkg._no_such_private_name
    with pytest.raises(ImportError):
        exec(f"from {pkg.__name__} import no_such_name", {})


@lazy
def test_second_access_does_not_reenter_getattr(pkg, monkeypatch):
    name = next(iter(pkg._EXPORTS))
    resolve, calls = pkg.__getattr__, []

    def counting(attr):
        calls.append(attr)
        return resolve(attr)

    expected = getattr(pkg, name)
    monkeypatch.delitem(vars(pkg), name)  # as a fresh process finds it
    monkeypatch.setitem(vars(pkg), "__getattr__", counting)
    assert getattr(pkg, name) is expected
    assert getattr(pkg, name) is expected
    assert calls == [name]


def test_version_stays_a_literal_setuptools_can_read():
    # [tool.setuptools.dynamic] version = {attr = "repro.__version__"}
    # reads the assignment from the source without importing the package.
    import ast

    with open(os.path.join(SRC, "repro", "__init__.py")) as handle:
        tree = ast.parse(handle.read())
    literals = [
        node.value.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
        and isinstance(node.value, ast.Constant)
    ]
    assert literals == [repro.__version__]


def test_a_submodule_whose_own_import_fails_is_not_reported_missing(
        tmp_path, monkeypatch):
    # "no such attribute" only when the submodule itself is absent: an
    # import error inside an existing submodule must surface as itself.
    pkg = tmp_path / "lazy_fixture_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(textwrap.dedent("""
        from repro._util import lazy_exports
        __getattr__, __dir__ = lazy_exports(__name__, {"thing": "good"})
    """))
    (pkg / "good.py").write_text("thing = object()\n")
    (pkg / "bad.py").write_text("import lazy_fixture_missing_dependency\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        import lazy_fixture_pkg

        assert lazy_fixture_pkg.thing is lazy_fixture_pkg.good.thing
        with pytest.raises(ModuleNotFoundError,
                           match="lazy_fixture_missing_dependency"):
            lazy_fixture_pkg.bad
        with pytest.raises(AttributeError, match="lazy_fixture_pkg"):
            lazy_fixture_pkg.absent
    finally:
        for name in [m for m in sys.modules if m.startswith("lazy_fixture")]:
            del sys.modules[name]
