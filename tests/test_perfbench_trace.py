"""The benchmark's outside-in tracer must still install on the package.

``perfbench/run.py --trace 1`` rebinds every function it times in each
kamzero module and refuses to run if an untraced reference is left behind,
so a refactor that hides one of those functions breaks the traced run.  The
bracket's sizing counts read each operand's ``terms`` view, so a view the
tracer cannot walk shows up as zero generated rows; the solver's count
reads ``solve_counts`` from the third item of its return value, so a changed
return shape shows up here too.  The NLS build must pass through each of
the three traced front-end stages exactly once; ``measure`` reads the
frequency map from the quartic and must pass through none of them.  The
no-torus run must pass through the escape witness once and through the
solver gate once per KAM step, so the spans the witness and the gate are
timed by are still the ones the run calls.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
import kamzero
from kamzero import cli
from tracer import Tracer

tracer = Tracer()
tracer.install(kamzero)
code = cli.main(["run", "--config", "configs/synthetic.cfg", "--out", sys.argv[1]])
built = cli.main(["nls-build", "--config", "configs/nls.cfg", "--out", sys.argv[1]])
stats = tracer.layer_stats()
measured = cli.main(["measure", "--config", "configs/nls.cfg", "--out", sys.argv[1]])
after = tracer.layer_stats()
escaped = cli.main(["run", "--config", "configs/no_torus.cfg", "--out", sys.argv[1]])
last = tracer.layer_stats()
print(code, stats["driver.kam_step"]["calls"], stats["series.poisson_bracket"]["calls"],
      stats["series.poisson_bracket"]["rows_generated"],
      stats["homological.solve_homological"]["solves"], built,
      *(stats["nls." + name]["calls"] for name in ("build_nls", "birkhoff_transform",
                                                   "to_kam_form")),
      measured, after["cli.cmd_measure"]["calls"],
      after["nls.birkhoff_transform"]["calls"] - stats["nls.birkhoff_transform"]["calls"],
      escaped, *(last[name]["calls"] - after[name]["calls"] for name in (
          "driver.no_torus_witness", "driver.kam_step", "homological.check_nonresonance")))
"""


def test_tracer_installs_and_counts_kam_steps(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"),
                                         os.path.join(ROOT, "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (code, steps, brackets, rows, solves, built, *nls_calls, measured, measures,
     transforms, escaped, witnesses, nt_steps, checks) = proc.stdout.split()[-16:]
    assert code == "0"
    assert int(steps) > 0
    assert int(brackets) > 0
    assert int(rows) > 0
    assert int(solves) > 0
    assert built == "0"
    assert nls_calls == ["1", "1", "1"]
    assert (measured, measures, transforms) == ("0", "1", "0")
    # the no-torus run: one witness, and one solver gate per KAM step
    assert (escaped, witnesses) == ("2", "1")
    assert int(nt_steps) > 0 and checks == nt_steps
