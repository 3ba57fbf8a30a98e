import numpy as np
import pytest

from inflow.autodiff import Tensor
from inflow.cli import ModelSection, build_pipeline


@pytest.mark.parametrize("variant", ["inflow", "inflow_j", "revin"])
def test_norm_first_pipeline_is_affine_equivariant(variant):
    # the first layer standardizes each window per variate and its inverse
    # restores that window's location and scale, so for a > 0 per variate
    # predict(a*x + b) = a*predict(x) + b, up to the normalization's eps
    model = ModelSection(variant=variant, num_blocks=2, flow_hidden=8, lookback=16,
                         horizon=8, hidden_width=16, depth=2)
    pipe = build_pipeline(model, num_variates=3, seed=0)
    rng = np.random.default_rng(1)
    for p in pipe.phi_parameters().values():
        p.data[...] = rng.normal(size=p.shape) * 0.5
    x = rng.normal(size=(4, 16, 3))
    a, b = rng.uniform(0.5, 3.0, size=3), rng.uniform(-5.0, 5.0, size=3)
    expected = a * pipe.predict(Tensor(x)).numpy() + b
    got = pipe.predict(Tensor(a * x + b)).numpy()
    assert np.max(np.abs(got - expected)) <= 1e-4 * np.max(np.abs(expected))
