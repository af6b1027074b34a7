"""Start-up footprint: a run imports only the modules it uses.

Heavy SciPy submodules are imported at their one call site, and the
reachability graph needs no third-party graph library.  Each check runs
in a fresh interpreter, since this test process has long since imported
everything.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

HEAVY = ("scipy.stats", "scipy.linalg", "scipy.special", "networkx")

_REPORT = """
import json
print(json.dumps({
    "heavy": sorted(m for m in sys.modules if m.split(".")[0] == "networkx"
                    or m in %r),
    "result": result,
}))
""" % (HEAVY,)


def run_fresh(code):
    """Run ``code`` in a new interpreter; return its JSON report."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + _REPORT],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_ready_steps_import_no_heavy_module():
    # The steps a process takes before its first run: import the CLI,
    # load a scenario and resolve its execution settings.
    report = run_fresh(
        "import repro.cli\n"
        "from repro.scenarios import load_scenario\n"
        "load_scenario('scenarios/fig14.yaml').execution.resolve()\n"
        "result = None\n"
    )
    assert report["heavy"] == []


def test_cli_list_imports_no_heavy_module():
    report = run_fresh(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['list'])\n"
        "result = [code, out.getvalue().split()[0]]\n"
    )
    assert report["result"] == [0, "figures:"]
    assert report["heavy"] == []


def test_lazy_paths_load_and_give_current_values():
    report = run_fresh(
        "import numpy as np\n"
        "from repro.analysis import liveness_summary\n"
        "from repro.core.distributions import Erlang, Exponential, LogNormal\n"
        "from repro.markov import CTMC\n"
        "from repro.markov.fitting import _log_likelihood\n"
        "from repro.models import SimpleNodeModel\n"
        "x = np.array([0.5, 1.0, 2.5])\n"
        "ll = [_log_likelihood(d, x) for d in\n"
        "      (Exponential(2.0), Erlang(3, 1.5), LogNormal(0.1, 0.8))]\n"
        "c = CTMC.from_rates({('on', 'off'): 1.0, ('off', 'on'): 2.0})\n"
        "null = c._nullspace_pi()\n"
        "report = liveness_summary(SimpleNodeModel().build())\n"
        "result = {\n"
        "    'll': ll,\n"
        "    'pi': c.steady_state().tolist(),\n"
        "    'null': (null / null.sum()).tolist(),\n"
        "    'live': sorted(report.live),\n"
        "    'dead': sorted(report.dead),\n"
        "    'deadlocks': report.deadlock_markings,\n"
        "}\n"
    )
    result = report["result"]
    x = [0.5, 1.0, 2.5]
    expon = sum(math.log(2.0) - 2.0 * v for v in x)
    erlang = sum(
        2 * math.log(v) - 1.5 * v + 3 * math.log(1.5) - math.lgamma(3) for v in x
    )
    lognorm = sum(
        -math.log(v * 0.8 * math.sqrt(2 * math.pi))
        - (math.log(v) - 0.1) ** 2 / (2 * 0.8**2)
        for v in x
    )
    assert result["ll"] == pytest.approx([expon, erlang, lognorm], rel=1e-12)
    assert result["pi"] == pytest.approx([2 / 3, 1 / 3], rel=1e-12)
    assert result["null"] == pytest.approx([2 / 3, 1 / 3], rel=1e-12)
    assert result["live"] == [
        "Computation_Delay",
        "Job_Arrival",
        "Receive_Delay",
        "Temp",
        "Transmit_Delay",
    ]
    assert result["dead"] == []
    assert result["deadlocks"] == 0
    # The calls above are what pull the SciPy submodules in.
    assert {"scipy.stats", "scipy.linalg"} <= set(report["heavy"])
    assert not any(m.startswith("networkx") for m in report["heavy"])


def test_serving_client_needs_no_urllib_request():
    # Every client mode goes through one keep-alive http.client path.
    report = run_fresh(
        "import repro.serving\n"
        "result = 'urllib.request' in sys.modules\n"
    )
    assert report["result"] is False


def test_runtime_imports_no_experiment_driver():
    # The runtime sits below the experiment drivers: importing it must
    # not pull any of them in.
    report = run_fresh(
        "import repro.runtime\n"
        "result = sorted(m for m in sys.modules\n"
        "                if m.split('.')[:2] == ['repro', 'experiments'])\n"
    )
    assert report["result"] == []
