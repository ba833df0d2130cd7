"""The lazy package and the command line's numpy start-up (capsift._startup)."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import needs_openblas
import capsift
import capsift.__main__

ROOT = Path(__file__).parents[1]
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
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
# capsift.experiment.train once that module is loaded, so every call appends
# its process id and OpenBLAS's thread count to the file LOG, in forked
# workers too. A module entry runs as ``python -m`` runs it (runpy, run as
# __main__); "script" calls the ``capsift`` script's target. The CPUS
# argument stands in for the number of usable CPUs.
_DRIVER = r"""
import importlib.machinery, json, os, runpy, sys

entry, cpus, log, *argv = sys.argv[1:]
user_env = dict(os.environ)
seen = {}


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
            from helpers import OPENBLAS  # numpy is loaded by now
            real_train = module.train

            def train(spec, features, labels):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()} {OPENBLAS[0]()}\n")
                return real_train(spec, features, labels)
            module.train = train
        spec.loader.exec_module = exec_and_spy
        return spec


sys.meta_path.insert(0, Watch())
sys.path.append(os.path.join(os.getcwd(), "tests"))
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
from helpers import OPENBLAS
print(json.dumps({"code": code, "pid": os.getpid(), "numpy_env": seen.get("numpy_env"),
                  "threads": OPENBLAS[0](), "env_unchanged": dict(os.environ) == user_env}))
"""

ENTRIES = ["capsift", "capsift.cli", "script"]
EXPECTED_REPORTS = ROOT / "tests" / "fixtures" / "expected" / "reports.csv"


def _start(entry: str, argv: list[str], tmp_path: Path, cpus: str = "2", **variables) -> dict:
    """What the driver printed, with "train": the (process id, thread
    count) of every ``train`` call."""
    log = tmp_path / "train.log"
    log.touch()
    done = subprocess.run([sys.executable, "-c", _DRIVER, entry, cpus, str(log), *argv],
                          cwd=ROOT, capture_output=True, text=True, env=_env(**variables),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0, done.stderr
    assert result["env_unchanged"]
    rows = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    result["train"] = [(int(pid), int(threads)) for pid, threads in rows]
    return result


def _stats() -> list[str]:
    return ["stats", "--manifest", "tests/fixtures/manifest.csv", "--field", "views"]


def _run(out: Path) -> list[str]:
    return ["run", "--config", "tests/fixtures/experiment.cfg", "--out", str(out)]


def _assert_pooled_on_one_thread(result: dict, out: Path) -> None:
    assert result["numpy_env"] == "1"
    assert result["threads"] == 1
    assert len(result["train"]) == 56
    assert all(pid != result["pid"] and threads == 1 for pid, threads in result["train"])
    assert (out / "reports.csv").read_bytes() == EXPECTED_REPORTS.read_bytes()


@needs_openblas
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_pooling_entry_imports_numpy_on_one_blas_thread(entry, tmp_path):
    result = _start(entry, _run(tmp_path / "out"), tmp_path)
    _assert_pooled_on_one_thread(result, tmp_path / "out")


@needs_openblas
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_pool_overrides_the_users_blas_variable(entry, variable, tmp_path):
    result = _start(entry, _run(tmp_path / "out"), tmp_path, **{variable: "2"})
    _assert_pooled_on_one_thread(result, tmp_path / "out")  # _start checks os.environ


@needs_openblas
@needs_two_cpus
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_the_users_blas_variable_wins(entry, variable, tmp_path):
    # on one usable CPU nothing pools, so numpy starts as the user asked
    result = _start(entry, _stats(), tmp_path, cpus="1", **{variable: "2"})
    assert result["numpy_env"] == (None if variable == "OMP_NUM_THREADS" else "2")
    assert result["threads"] == 2


@needs_openblas
@pytest.mark.parametrize("entry", ENTRIES)
def test_one_usable_cpu_sets_nothing(entry, tmp_path):
    result = _start(entry, _stats(), tmp_path, cpus="1")
    assert result["numpy_env"] is None


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
