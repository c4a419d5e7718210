import time

import pytest
from hypothesis import settings

from relaycancel.cli import config_objects, load_config
from relaycancel.lifting import fsfh_lift
from relaycancel.relay import (
    CouplingChannel,
    RelayParams,
    build_generalized_plant,
    scalar_block,
    uncertainty_weight,
)
from relaycancel.synthesis import (
    build_robust_plant,
    synthesize_nominal,
    synthesize_robust,
)

# Property tests draw the same examples on every run, so the suite stays
# deterministic; numerical kernels have no meaningful per-example deadline.
settings.register_profile("relaycancel", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("relaycancel")


def make_example_params(a2=1000.0):
    """Parameter set of the worked design example (h=1, f=10 kHz)."""
    return RelayParams(
        h=1.0,
        f=10000.0,
        a1=1.0,
        a2=a2,
        W=scalar_block([1.0], [2.0, 1.0]),
        F=scalar_block([1.0], [1.0]),
        P=scalar_block([1.0], [0.001, 1.0]),
    )


@pytest.fixture
def example_params():
    return make_example_params()


@pytest.fixture
def example_channel():
    return CouplingChannel(r=0.2, L=1.0)


@pytest.fixture(scope="session")
def nominal_design():
    """The bundled nominal_60db design (a2 = 1000, nominal channel, N = 16,
    n_q = 8, grid 256), bitwise what ``cli._design`` gives for that config,
    made once per session; design_time is its wall time."""
    t0 = time.perf_counter()
    params = make_example_params(a2=1000.0)
    channel = CouplingChannel(r=0.2, L=1.0)
    spec = build_generalized_plant(params, channel)
    lp = fsfh_lift(spec, 16)
    K = synthesize_nominal(lp, tol=1e-3, n_q=8, grid_size=256)
    elapsed = time.perf_counter() - t0
    return {"params": params, "channel": channel, "spec": spec, "lp": lp,
            "K": K, "design_time": elapsed}


@pytest.fixture(scope="session")
def robust_40db_design():
    """The bundled robust_40db design (N = 4), bitwise what ``cli._design``
    gives for that config, with its lifted robust plant ``rp``, made once
    per session."""
    cfg = load_config("robust_40db")
    d = cfg["design"]
    params, channel = config_objects(cfg)
    spec = build_generalized_plant(params, channel)
    rp = build_robust_plant(spec, uncertainty_weight(channel, d["epsilon"]),
                            d["N"])
    K = synthesize_robust(rp, n_q=d["n_q"], grid_size=d["grid_size"],
                          margin=d["margin"], tol=d["tol"])
    return {"spec": spec, "rp": rp, "K": K}
