"""``src`` holds only what the four commands run.

The commands run in-process on a 16^3 grid under ``sys.setprofile``:
``calibrate`` with two exponents, ``simulate`` once per ``init.kind`` (each
with a calibration record), ``verify`` and ``report --pressure``.  Every
function defined at module level in the regcrit modules must be called,
except the few listed in :data:`NOT_RUN`, each with its reason.  A second
route to a quantity that no command takes fails here, so that the tests
cannot check it in place of the route the commands run.
"""

import inspect
import sys

from regcrit import cli, config, criteria, norms, snapshot, solver, spectral

MODULES = (spectral, norms, solver, criteria, snapshot, config, cli)

#: functions no command calls, and why each stays
NOT_RUN = {
    "spectral.to_physical": "the benchmark traces it by name",
    "spectral.full_from_half": "the benchmark traces it by name; tests/reference.py calls it",
    "spectral._mirror_tail": "the helper of full_from_half",
    "solver.step": "the oracle tests step through it; it shares _advance with run",
}

CALIBRATE = """
grid.n = 16
fluid.mu = 0.1
calibration.seeds = 0..1
calibration.p = 5,6
output.dir = cal
"""

SIMULATE = """
grid.n = 16
fluid.mu = 0.1
time.dt = 1e-3
time.t_end = 0.002
init.kind = {kind}
monitors.pairs = 6:4,5:5
monitors.calibration = cal/calibration.txt
snapshots.stride = 1
output.dir = run_{kind}
"""


def defined_functions():
    """'module.name' -> code object of every function a regcrit module defines."""
    out = {}
    for mod in MODULES:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{short}.{name}"] = obj.__code__
    return out


def run_commands(root):
    (root / "cal.cfg").write_text(CALIBRATE, encoding="utf-8")
    assert cli.main(["calibrate", str(root / "cal.cfg")]) == 0
    for kind in solver.INIT_KINDS:
        cfg = root / f"{kind}.cfg"
        cfg.write_text(SIMULATE.format(kind=kind), encoding="utf-8")
        assert cli.main(["simulate", str(cfg)]) == 0
    rundir = str(root / "run_random_divfree")
    assert cli.main(["verify", rundir]) == 0
    assert cli.main(["report", rundir, "--pressure"]) == 0


def test_every_function_in_src_is_run_by_a_command(tmp_path):
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_commands(tmp_path)
    finally:
        sys.setprofile(None)

    functions = defined_functions()
    assert set(NOT_RUN) <= set(functions), "an allowlisted function is gone"
    never = sorted(name for name, code in functions.items() if code not in called)
    assert never == sorted(NOT_RUN), (
        f"not run by any command: {sorted(set(never) - set(NOT_RUN))}; "
        f"allowlisted but run: {sorted(set(NOT_RUN) - set(never))}"
    )
