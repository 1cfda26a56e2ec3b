"""Property-based tests of the package's invariants.

Examples are derandomized and no example database is kept, so every run
draws the same inputs and writes nothing to the working tree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qimet.channels import StochasticChannel, choi_from_kraus, identity_channel
from qimet.linalg import trace_norm
from qimet.metrics import diamond_identity_stochastic


@st.composite
def stochastic_channels(draw):
    """Stochastic channels on 1..4 levels with weight ``nu`` in (0, 1]: each
    of the ``dim**2`` weights is drawn from [0, 1/dim**2], zeros included."""
    dim = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.0, 1.0 / dim**2,
                                      allow_subnormal=False),
                            min_size=dim**2, max_size=dim**2)
                   .filter(lambda w: sum(w) > 0.0))
    return StochasticChannel.from_weights(
        dim, {(k // dim, k % dim): w for k, w in enumerate(weights)})


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(stochastic_channels())
def test_stochastic_distance_to_identity_is_attained_at_phi_plus(t):
    # J(T) - J(id) is (T ⊗ I - I ⊗ I) applied to the maximally entangled
    # state, so its trace norm is the diamond distance exactly when that
    # state is an optimal input, as covariance makes it for these channels
    at_phi_plus = trace_norm(t.choi().matrix
                             - choi_from_kraus(identity_channel(t.dim)).matrix)
    assert np.isclose(at_phi_plus, 2.0 * diamond_identity_stochastic(t),
                      rtol=0.0, atol=1e-12)
