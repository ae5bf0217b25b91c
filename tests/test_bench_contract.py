"""The benchmark's tracer names regcrit functions by string; these tests pin
those names and the arguments its annotators bind, so a refactor that
renames or re-signs a traced layer fails here instead of reading 0."""

import importlib
import inspect
import os
import sys

import pytest

from regcrit import config, criteria, snapshot
from regcrit import solver as solv
from regcrit.spectral import Grid, VelocityField, convective_core_half, to_physical

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
tracing = importlib.import_module("tracing")
workloads = importlib.import_module("workloads")


def traced_names():
    return [tracing.STEP_SPAN, *tracing.MEAN_MS, *tracing.PEAK_MB.values()]


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_regcrit_function(name):
    module_name, _, attr = name.partition(".")
    assert module_name in tracing.MODULES
    module = importlib.import_module(f"regcrit.{module_name}")
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn), f"{name} is not a function of regcrit.{module_name}"
    # install() wraps only functions defined in the module, and private ones
    # only when listed
    assert fn.__module__ == module.__name__
    assert not attr.startswith("_") or name in tracing.PRIVATE_SPANS


def test_annotators_bind_their_arguments(tmp_path):
    mods = {m: importlib.import_module(f"regcrit.{m}") for m in tracing.MODULES}
    annotators = tracing._annotators(mods)

    g = Grid(8)
    u_hat = solv.init_taylor_green(g, 1.0)
    cfg = criteria.CriterionConfig(pairs=(criteria.SerrinPair(6.0, 4.0),), mu=0.1)
    # the call shape solver.run uses
    _, _, u_phys, omega = convective_core_half(g, u_hat.half)
    args = (u_hat, 0.0, cfg)
    kwargs = {
        "rhs_hat": solv.nonlinear_rhs(u_hat),
        "with_identity": False,
        "physical": [VelocityField(g, u_phys), VelocityField(g, omega)],
    }
    bound = tracing._bound(criteria.evaluate_sample, args, kwargs)
    assert {"cfg", "with_identity"} <= set(bound)
    rec = {}
    annotators["criteria.evaluate_sample"](rec, args, kwargs, None)
    assert rec == {"identity": False}

    path = str(tmp_path / "snap.bin")
    field = to_physical(u_hat)
    snapshot.write_snapshot(path, field, 0.0)
    rec = {}
    annotators["snapshot.write_snapshot"](rec, (path, field, 0.0), {}, None)
    assert rec["bytes"] == os.path.getsize(path) > 0
    rec = {}
    annotators["snapshot.read_snapshot"](rec, (path,), {}, None)
    assert rec["bytes"] == os.path.getsize(path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_pass_the_config_reader(name, tmp_path):
    """A benchmark config the config reader rejects fails here, not in the
    benchmark."""
    workloads.write_configs(workloads.WORKLOADS[name], seed=1, workdir=str(tmp_path))
    for cfg_name in sorted(set(workloads.CONFIGS.values())):
        raw = config.parse_config(str(tmp_path / cfg_name))
        config.build_solver_config(raw)
    calibrate = config.parse_config(str(tmp_path / workloads.CONFIGS["calibrate"]))
    config.build_calibration_config(calibrate)
