"""The package namespace, and the modules each entry point loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import littlewood_offord

SRC = Path(littlewood_offord.__file__).resolve().parent.parent

# Modules that cost start-up time: verifying one instance loads none of
# them, and a sweep only the campaign module.
WATCHED = ("littlewood_offord.campaign", "dataclasses", "inspect",
           "multiprocessing", "hashlib")


def loaded_after(code: str, tmp_path: Path) -> set[str]:
    """The WATCHED modules in sys.modules once code has run in a fresh
    interpreter."""
    probe = (f"import sys\n{code}\n"
             f"print(*(m for m in {WATCHED!r} if m in sys.modules), "
             f"file=sys.stderr)")
    err = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stderr
    # The last line is the probe's; a campaign prints a summary before.
    return set(err.splitlines()[-1].split())


def test_single_instance_commands_load_no_campaign_modules(tmp_path):
    instance = tmp_path / "circle.instance"
    instance.write_text("dimension = 2\nnorm = l2\nvectors = 3/5,4/5\n"
                        "target = 3/5,4/5\n")
    main = "from littlewood_offord.cli import main\n"
    for code in ("import littlewood_offord",
                 "import littlewood_offord.cli",
                 main + f"assert main(['verify', {str(instance)!r}]) == 0",
                 main + "assert main(['bound', '6', '2']) == 0"):
        assert loaded_after(code, tmp_path) == set(), code


def test_a_sweep_loads_neither_dataclasses_nor_hashlib(tmp_path):
    # Only the seeded modes hash, and no campaign loads multiprocessing:
    # at two workers, the random one forks them itself.
    main = "from littlewood_offord.cli import main\n"
    for name, text, workers, loaded in (
            ("grid", "mode = exhaustive-grid\nnorms = l1, l2\nn = 1..3\n"
                     "d = 2..2\ngrid = -1, -1/2, 1/2, 1\n", 1, set()),
            ("random", "mode = random\nnorms = l1\nn = 1..3\nd = 1..2\n"
                       "seed = 3\nbudget = 5\n", 1, {"hashlib"}),
            ("forked", "mode = random\nnorms = l1\nn = 1..3\nd = 1..2\n"
                       "seed = 3\nbudget = 130\n", 2, {"hashlib"})):
        config = tmp_path / f"{name}.campaign"
        config.write_text(text)
        code = main + (f"assert main(['campaign', {str(config)!r}, "
                       f"'--workers', '{workers}']) == 0")
        assert loaded_after(code, tmp_path) == {
            "littlewood_offord.campaign"} | loaded, name


def test_a_forked_campaign_leaves_no_process_in_its_session(tmp_path):
    config = tmp_path / "forked.campaign"
    config.write_text("mode = random\nnorms = l1, l2\nn = 1..8\nd = 1..2\n"
                      "seed = 3\nbudget = 256\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "littlewood_offord.cli", "campaign",
         str(config), "--workers", "2", "--out", str(tmp_path / "report")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
        stderr=subprocess.DEVNULL, start_new_session=True)
    assert proc.wait(timeout=120) == 0
    # The session and its process group carry the campaign's pid.
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_public_names_resolve_lazily_to_their_definitions():
    names = littlewood_offord.__all__
    assert len(set(names)) == len(names)
    for name in names:
        module = importlib.import_module(
            f"littlewood_offord.{littlewood_offord._SOURCE[name]}")
        value = getattr(littlewood_offord, name)
        assert value is getattr(module, name)
        if getattr(value, "__module__", "").startswith("littlewood_offord"):
            assert value.__module__ == module.__name__
        assert vars(littlewood_offord)[name] is getattr(module, name)
    assert set(names) <= set(dir(littlewood_offord))
    namespace: dict = {}
    exec("from littlewood_offord import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
    with pytest.raises(AttributeError, match="no attribute 'campaign_config'"):
        littlewood_offord.campaign_config
    with pytest.raises(ImportError):
        exec("from littlewood_offord import campaign_config", {})
