"""The failures of the solver layers, in a module that imports nothing.

`spectral` raises SolverError and `propagation` raises PropagationError;
`cli.run`, the workflows and the package take them from here, so a verify
run, and a caller that only catches them, load neither layer, and so none of
scipy.linalg, scipy.sparse.linalg and scipy.sparse.csgraph.
"""


class SolverError(RuntimeError):
    """Eigensolver failure or operator structure violation."""


class PropagationError(RuntimeError):
    """Pipeline precondition failures or internal consistency violations."""
