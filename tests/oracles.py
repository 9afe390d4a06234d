"""Reference implementations that tests compare the library against."""

import numpy as np

from starsis.model import ModelParams, StarlikeTopology, as_level_state


def step_level3(d, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """Dedicated 3-level form of the reduced map, written out coordinate by coordinate."""
    if topo.k != 3:
        raise ValueError("step_level3 requires a 3-level topology")
    d = as_level_state(d, topo)
    a, b = params.a, params.b
    n1, n2 = topo.branching
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    return np.stack(
        [
            1.0 - (1.0 - a * x) * (1.0 - b * y) ** n1,
            1.0 - (1.0 - a * y) * (1.0 - b * x) * (1.0 - b * z) ** n2,
            1.0 - (1.0 - a * z) * (1.0 - b * y),
        ],
        axis=-1,
    )
