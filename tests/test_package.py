import os
import pkgutil
import subprocess
import sys

import wormnet
from wormnet import cli

_SRC = os.path.dirname(os.path.dirname(wormnet.__file__))

_STEPS = (
    ["generate", "--family", "powerlaw", "--n", "3000", "--alpha", "2.5", "--k-min", "1",
     "--k-max", "50", "--seed", "1", "--out", "net.edges"],
    ["threshold", "--graph", "net.edges", "--strategy", "random", "--trials", "10",
     "--out", "random.csv"],
    ["threshold", "--graph", "net.edges", "--strategy", "targeted", "--out", "targeted.csv"],
)


def _python(code, cwd=None):
    env = {**os.environ, "PYTHONPATH": _SRC}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                          text=True, check=True).stdout


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_no_wormnet_module_loads_scipy():
    names = sorted(m.name for m in pkgutil.iter_modules(wormnet.__path__, "wormnet."))
    assert "wormnet.cli" in names and "wormnet.harness" in names
    code = "import importlib, sys\n" + "".join(
        f"importlib.import_module({name!r})\n" for name in names
    ) + "print('scipy' in sys.modules)\n"
    assert _python(code) == "False\n"


def test_the_cli_writes_the_same_bytes_without_scipy(tmp_path, monkeypatch, capsys):
    blocked, normal = tmp_path / "blocked", tmp_path / "normal"
    blocked.mkdir()
    normal.mkdir()
    # None in sys.modules makes every import of scipy raise ImportError
    _python("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from wormnet import cli\n"
            f"for argv in {list(_STEPS)!r}:\n"
            "    assert cli.main(argv) == 0\n", cwd=blocked)
    monkeypatch.chdir(normal)
    for argv in _STEPS:
        assert cli.main(list(argv)) == 0
    capsys.readouterr()
    assert sorted(_files(normal)) == ["net.edges", "random.csv", "targeted.csv"]
    assert _files(blocked) == _files(normal)
