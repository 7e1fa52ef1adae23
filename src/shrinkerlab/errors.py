"""The failures of the solver layers, in a module that imports nothing.

`spectral` raises SolverError and `propagation` raises PropagationError, and
each re-exports its own. `cli.run` and the workflows catch them from here, so
a verify run, which solves nothing, loads neither layer, and so none of
scipy.linalg, scipy.sparse.linalg and scipy.sparse.csgraph.
"""


class SolverError(RuntimeError):
    """Eigensolver failure or operator structure violation."""


class PropagationError(RuntimeError):
    """Pipeline precondition failures or internal consistency violations."""
