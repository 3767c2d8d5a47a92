import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


@pytest.fixture
def state_stack(rng) -> np.ndarray:
    """(N, 4, 4) stack of model states and random density matrices.

    It holds white states at r=0 and at p=0, whose spectra have exactly
    tied eigenvalues.
    """
    from unruhkit import accelerated_color, accelerated_white, accelerated_whitecolor
    from oracles import random_density

    states = []
    for x in (0.0, 0.3, 1.0 / np.sqrt(2.0), 1.0):
        for s in (0.0, 0.25, 0.6, 1.0):
            for r in (0.0, 0.4, 0.785):
                states.append(accelerated_white(x, s, r))
                states.append(accelerated_color(x, s, r))
                states.append(accelerated_whitecolor(x, s / 2, 1.0 - s, r))
    states.extend(random_density(rng) for _ in range(20))
    return np.stack(states)


NON_FINITE_PLACES = ("all", "diagonal", "pair", "imaginary", "stack")


@pytest.fixture(
    params=[(value, where) for value in (np.nan, np.inf, -np.inf) for where in NON_FINITE_PLACES],
    ids=lambda case: f"{case[0]}-{case[1]}",
)
def non_finite_state(request) -> np.ndarray:
    """The maximally mixed state with entries set to NaN, inf or -inf: all of
    them, one diagonal entry, a symmetric off-diagonal pair, the imaginary
    part of a conjugate pair, or one entry of one matrix of a stack."""
    value, where = request.param
    if where == "all":
        return np.full((4, 4), value)
    state = np.eye(4, dtype=complex if where == "imaginary" else float) / 4
    if where == "diagonal":
        state[0, 0] = value
    elif where == "pair":
        state[1, 2] = state[2, 1] = value
    elif where == "imaginary":
        state[1, 2], state[2, 1] = complex(0.0, value), complex(0.0, -value)
    else:
        state = np.stack([state] * 3)
        state[1, 3, 3] = value
    return state


@pytest.fixture(scope="session")
def sweep_small_pools() -> dict[int, list[list[str]]]:
    """The benchmark's seeded ``sweep-small`` pools of seeds 1-3, generated by
    ``perfbench/workloads.py``: each spec is its ``sweep`` flags, without the
    command name."""
    # Imported under a name no other module uses.
    spec = importlib.util.spec_from_file_location("perfbench_workloads_pool", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    pools = {}
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        pools[seed] = [workloads.generate_spec(rng).argv[1:] for _ in range(workloads.POOL_SIZE)]
    return pools
