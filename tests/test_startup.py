"""The lazy package and the command line's numpy start-up (capsift._startup)."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capsift
import capsift.__main__
import capsift.experiment

ROOT = Path(__file__).parents[1]
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
needs_openblas = pytest.mark.skipif(capsift.experiment._openblas_threads() is None,
                                    reason="numpy has no bundled OpenBLAS")
# OpenBLAS caps a thread variable at the CPUs it finds
needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="fewer than 2 CPUs")


def _env(**variables) -> dict:
    """This process's environment with ``src`` importable, none of the BLAS
    thread variables, and then ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    return dict(env, PYTHONPATH=os.pathsep.join(filter(None, paths)), **variables)


# --- the lazy package ---------------------------------------------------------


def test_importing_the_package_loads_no_numpy():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, capsift; print(sorted(m for m in sys.modules "
                               "if m == 'numpy' or m.startswith('capsift.')))"],
        capture_output=True, text=True, env=_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_public_name_is_its_modules_object():
    for name in capsift.__all__[1:]:
        module = importlib.import_module(f"capsift.{capsift._MODULE_OF[name]}")
        assert getattr(capsift, name) is getattr(module, name), name
        assert vars(capsift)[name] is getattr(module, name), name  # kept once read
    assert capsift.__all__[0] == "__version__" and "__version__" in vars(capsift)  # plain


def test_dir_lists_every_public_name():
    assert set(capsift.__all__) <= set(dir(capsift))


def test_an_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'capsift' has no attribute 'no_such_name'"):
        capsift.no_such_name


# --- numpy's start-up in a fresh interpreter ------------------------------------

# Runs one command-line entry in a fresh interpreter and prints, as its last
# stdout line, what the start-up did. An import hook records the value of
# OPENBLAS_NUM_THREADS as numpy is first imported, and wraps
# capsift.experiment._openblas_threads once that module is loaded, so every
# OpenBLAS setter call of the run is logged. A module entry runs as
# ``python -m`` runs it (runpy, run as __main__); "script" calls the
# ``capsift`` script's target. The CPUS argument stands in for the number of
# usable CPUs.
_DRIVER = r"""
import importlib.machinery, json, os, runpy, sys

entry, cpus, *argv = sys.argv[1:]
user_env = dict(os.environ)
seen, sets = {}, []


class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.setdefault("numpy_env", os.environ.get("OPENBLAS_NUM_THREADS"))
        if name != "capsift.experiment":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        exec_module = spec.loader.exec_module

        def exec_and_spy(module):
            exec_module(module)
            real = module._openblas_threads

            def spied():
                get_threads, set_threads = real()

                def logged_set(threads):
                    sets.append(threads)
                    set_threads(threads)
                return get_threads, logged_set
            module._openblas_threads = spied
        spec.loader.exec_module = exec_and_spy
        return spec


sys.meta_path.insert(0, Watch())
os.sched_getaffinity = lambda pid: set(range(int(cpus)))
sys.argv = ["capsift", *argv]
try:
    if entry == "script":
        from capsift.__main__ import main
        code = main()
    else:
        runpy.run_module(entry, run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
import capsift.experiment
print(json.dumps({"code": code, "numpy_env": seen.get("numpy_env"), "sets": sets,
                  "threads": capsift.experiment._openblas_threads()[0](),
                  "env_unchanged": dict(os.environ) == user_env}))
"""

ENTRIES = ["capsift", "capsift.cli", "script"]


def _start(entry: str, argv: list[str], cpus: str = "2", **variables) -> dict:
    done = subprocess.run([sys.executable, "-c", _DRIVER, entry, cpus, *argv], cwd=ROOT,
                          capture_output=True, text=True, env=_env(**variables), timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0, done.stderr
    assert result["env_unchanged"]
    return result


def _stats() -> list[str]:
    return ["stats", "--manifest", "tests/fixtures/manifest.csv", "--field", "views"]


def _run(out: Path) -> list[str]:
    return ["run", "--config", "tests/fixtures/experiment.cfg", "--out", str(out)]


@needs_openblas
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_pooling_entry_imports_numpy_on_one_blas_thread(entry, tmp_path):
    result = _start(entry, _run(tmp_path))
    assert result["numpy_env"] == "1"
    assert result["threads"] == 1
    assert result["sets"] == []  # the pool finds one thread: nothing to pin or restore
    assert (tmp_path / "reports.csv").read_bytes() == (
        ROOT / "tests" / "fixtures" / "expected" / "reports.csv").read_bytes()


@needs_openblas
@needs_two_cpus
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_the_users_blas_variable_wins(entry, variable):
    result = _start(entry, _stats(), **{variable: "2"})
    assert result["numpy_env"] == (None if variable == "OMP_NUM_THREADS" else "2")
    assert result["threads"] == 2
    assert result["sets"] == []


@needs_openblas
@needs_two_cpus
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_under_the_users_blas_variable_the_pools_pin_and_restore(variable, tmp_path):
    result = _start("capsift.cli", _run(tmp_path), **{variable: "2"})
    assert result["sets"] == [1, 2]
    assert result["threads"] == 2


@needs_openblas
@pytest.mark.parametrize("entry", ENTRIES)
def test_one_usable_cpu_sets_nothing(entry):
    result = _start(entry, _stats(), cpus="1")
    assert result["numpy_env"] is None
    assert result["sets"] == []


def test_main_in_process_with_numpy_loaded_leaves_the_environment(monkeypatch, capsys):
    assert "numpy" in sys.modules
    for variable in BLAS_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(sys, "argv", ["capsift", *_stats()])
    monkeypatch.chdir(ROOT)
    before = dict(os.environ)
    assert capsift.__main__.main() == 0
    assert capsys.readouterr().out.startswith("topic,label,field,")
    assert dict(os.environ) == before
