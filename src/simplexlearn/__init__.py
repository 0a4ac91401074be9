"""Learning high-dimensional simplices from uniform samples.

The package has three layers:

- geometry, sampling, moments: simplices and their affine/isometric
  embeddings, seeded samplers for simplices and lp balls, and the
  closed-form third moment whose local maxima are the vertices;
- vertex_finder, learner: the third-moment fixed-point iteration and the
  full pipeline (frame estimation, embedding, one frame of n+1 starts,
  boosting);
- ica, evaluation, diagnostics, cli: reductions of simplex and lp-ball
  learning to ICA, whose Gamma radii make the sample's coordinates
  independent, recovery scoring (total variation, vertex matching),
  statistical verification suites that test the rows the reductions
  build, and the experiment harness.

Each public name is declared once, in its module's ``__all__``, and
re-exported here.
"""

from . import diagnostics, evaluation, geometry, ica, learner, moments, sampling, vertex_finder

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (geometry, sampling, moments, vertex_finder, learner, ica, evaluation, diagnostics):
    globals().update({name: getattr(_module, name) for name in _module.__all__})
    __all__ += _module.__all__
del _module
