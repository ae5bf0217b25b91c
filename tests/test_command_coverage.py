"""``src`` holds only what the four commands run.

The commands run in-process on a 16^3 grid under ``sys.setprofile``:
``calibrate`` with two exponents, ``simulate`` once per ``init.kind`` (each
with a calibration record), ``verify`` and ``report --pressure``.  Every
function defined at module level in the regcrit modules, and every method,
property and cached property of the classes they define, must be called,
except the few listed in :data:`NOT_RUN`, each with its reason.  A second
route to a quantity that no command takes fails here, so that the tests
cannot check it in place of the route the commands run.
"""

import inspect
import sys
from functools import cached_property

from regcrit import cli, config, criteria, norms, snapshot, solver, spectral

MODULES = (spectral, norms, solver, criteria, snapshot, config, cli)

#: the reason shared by the functions that only the benchmark's names keep
PINNED = "bench/tracing.py's MEAN_MS names it, and test_bench_contract pins it"

#: functions no command calls, and why each stays
NOT_RUN = {
    "spectral.full_from_half": f"{PINNED}; tests/reference.py calls it",
    "spectral._mirror_tail": "the helper of full_from_half",
    "spectral.first_derivatives": PINNED,
    "spectral.second_derivatives": PINNED,
    "solver.RunSink.snapshot": "the interface's no-op base; DirectorySink overrides it",
    "config.ConfigError.__init__": "only a config error raises it, and these configs are valid",
    "solver.NumericalBlowup.__init__": "only a blowup raises it, and these runs do not blow up",
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


def function_of(obj):
    """The function behind a class attribute: a method, static or class
    method, property getter or cached property, unwrapped from any
    decorator; None for anything else."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, cached_property):
        obj = obj.func
    return inspect.unwrap(obj) if inspect.isfunction(obj) else None


def defined_functions():
    """'module.name' and 'module.Class.name' -> code object of every function
    a regcrit module defines, and of every method its classes define.
    Dataclass-generated dunders are not the module's code and are left out."""
    out = {}
    for mod in MODULES:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{short}.{name}"] = inspect.unwrap(obj).__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = function_of(member)
                    if fn is not None and fn.__code__.co_filename == mod.__file__:
                        out[f"{short}.{name}.{attr}"] = fn.__code__
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
