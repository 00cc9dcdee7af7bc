import os
import subprocess
import sys

import wormnet


def test_modules_without_percolation_do_not_load_scipy():
    # the package itself imports nothing, so only percolation pays for scipy
    code = ("import sys\n"
            "import wormnet.graph, wormnet.netgen, wormnet.presets, wormnet.epidemic, "
            "wormnet.throttle\n"
            "print('scipy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(wormnet.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"
