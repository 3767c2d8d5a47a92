import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


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
