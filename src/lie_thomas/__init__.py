"""Lie point-symmetry machinery for the nonlinear wave equation

    u_xy + alpha*u_x + beta*u_y + gamma*u_x*u_y = 0

covering prolongation, determining equations, the symmetry algebra and its
adjoint representation, classification of one-dimensional subalgebras,
invariant reduction to ODEs, and numerically verified closed-form solution
families.
"""

__version__ = "1.0.0"

import importlib

# Public names by defining module.  Each is imported on first use (PEP 562),
# so ``import lie_thomas`` loads no submodule and a caller pays only for the
# modules it touches.
_EXPORTS = {
    "expr": (
        "ALPHA", "BETA", "GAMMA", "Expr", "ExprError", "Rat", "Sym", "U", "U_X",
        "U_XX", "U_XY", "U_Y", "U_YY", "UFunc", "X", "Y", "differentiate",
        "evaluate", "substitute",
    ),
    "algebra": (
        "AlgebraElement", "adjoint", "adjoint_table", "basis_element",
        "commutator", "commutator_table", "g_element", "group_action",
        "transform_solution",
    ),
    "classifier": ("CanonicalCase", "classify", "orbit_invariance_check"),
    "params": ("ThomasParams",),
    "determining": (
        "check_symmetry", "determining_equations", "exponential_g",
        "general_symmetry", "thomas_delta", "v1", "v2", "v3", "v4", "v_g",
    ),
    "families": (
        "SolutionFamily", "case1_solution", "case21a_solution", "case21b_solution",
        "case22_solution", "case31a_solution", "case31b_solution", "from_descriptor",
    ),
    "fuchs": ("FuchsSeries", "fuchs_series"),
    "printer": ("to_latex", "to_text"),
    "reduction": ("invariants", "reduced_ode", "verify_reduction"),
    "vectorfield": ("VectorField", "prolong"),
    "verification": ("GridSpec", "oracle_solutions", "residual", "residual_grid"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cases", "errors", "hyperdual", "jetpoly", "normal"}

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module("." + _ORIGIN[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
