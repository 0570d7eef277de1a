import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from friedrichs.model import (assemble_model, build_form_factor, build_grid,
                              build_switching)
from friedrichs.sweep import build_model_from_config, resolve_config

THETA = np.pi / 4.0


@pytest.fixture(scope="session")
def grid320():
    """The sweep's grid before its Jacobi panel and before its node count
    was halved: 20 ratio-2 panels of 16 nodes down to k_min ~ 1e-6,
    N = 320, and nothing below k_min."""
    return build_grid(1.0, 20, 16, 2.0 ** -20)


@pytest.fixture(scope="session")
def grid128():
    """Small grid for series and identity checks."""
    return build_grid(1.0, 16, 8, 2.0 ** -16)


@pytest.fixture(scope="session")
def switching():
    return build_switching(THETA)


@pytest.fixture(scope="session")
def model_b15(grid320, switching):
    return assemble_model(grid320, build_form_factor(grid320, 1.5), switching)


@pytest.fixture(scope="session")
def model_b15_small(grid128, switching):
    return assemble_model(grid128, build_form_factor(grid128, 1.5), switching)


@pytest.fixture(scope="session")
def model_defect():
    """Criterion 3's defect model, the beta = 0.5 default sweep's: eight
    panels down to 2^-8 and the Jacobi panel below, N = 76."""
    return build_model_from_config(resolve_config({}, beta=0.5))


@pytest.fixture(scope="session")
def model_gapped_small(switching):
    grid = build_grid(1.0, 8, 4, 1e-3)
    return assemble_model(grid, build_form_factor(grid, 1.5), switching, 1.0)


@pytest.fixture
def spoil_column(monkeypatch):
    """spoil(tau, factor) scales one tau's step directions d by factor."""
    from friedrichs import propagate

    blocks = propagate._interaction_blocks

    def spoil(tau, factor):
        def spoiled(model, taus, n_steps):
            forms, clean = blocks(model, taus, n_steps)
            scale = np.where(np.asarray(taus) == tau, factor, 1.0)[:, None]
            return forms, ((start, d * scale) for start, d in clean)

        monkeypatch.setattr(propagate, "_interaction_blocks", spoiled)

    return spoil
