import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nanoramsey.dynamics import PulseSequence
from nanoramsey.grid import desk_scale_params
from nanoramsey.params import build_params

PAPER_CONFIG = dict(
    mass=1.25e-17,        # kg
    radius=1.0e-7,        # m
    b_gradient=1.0e7,     # T/m
    theta=0.0,
    t3=1.0e-4,            # s
    trap_omega=1.0e5,     # rad/s
    mw_frequency=2.87e9,  # Hz
    pulse_duration=1.0e-8,
    t_internal=400.0,
    t_environment=300.0,
    t_cm=1.0e-3,
    n_nucleons=1.0e9,
)


@pytest.fixture(scope="session")
def paper_params():
    return build_params(dict(PAPER_CONFIG))


@pytest.fixture(scope="session")
def paper_seq():
    return PulseSequence.balanced(PAPER_CONFIG["t3"])


@pytest.fixture(scope="session")
def desk():
    """Default desk-scale (params, seq) pair with phase 1.215 rad."""
    return desk_scale_params()


def paper_config_text(**overrides) -> str:
    cfg = dict(PAPER_CONFIG)
    cfg.update(overrides)
    return "".join(f"{k} = {v!r}\n" for k, v in cfg.items() if v is not None)


def load_perfbench(name: str):
    """``perfbench/<name>.py`` loaded from its file; nothing under perfbench/ is installed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    if spec.name in sys.modules:
        return sys.modules[spec.name]
    module = importlib.util.module_from_spec(spec)
    # registered first: the dataclasses of workloads.py look their module up
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
