"""Certified single-hidden-layer sigmoid approximation.

Given a continuous target function on [a, b] and an error budget eps, the
package computes a sufficient neuron count and slope, builds the explicit
one-hidden-layer approximant whose output weights are forward differences
of f, measures the sup-norm error against the certificate, and exports the
resulting network.  Supporting machinery: exact Stirling numbers, the
closed-form nth derivative of the sigmoid, the sigmoid's saturation slope,
and a small expression language for specifying f textually.
"""

from .engine import (
    DecompositionReport,
    ErrorReport,
    Recipe,
    RecipeError,
    SigmoidApproximant,
    SurrogateNotApplicableError,
    build_approximant,
    compute_recipe,
    error_decomposition,
    evaluate,
    surrogate_L,
    validate,
)
from .expressions import (
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    FunctionSpec,
    Interval,
    LexError,
    UnknownIdentifierError,
    estimate_lipschitz,
    estimate_sup,
    evaluate_ast,
    format_ast,
    parse,
)
from .export import (
    approximant_from_document,
    read_network_document,
    to_network_document,
    write_network,
    write_network_document,
    write_samples,
)
from .limits import SaturationSlope, boundary_residual, sigmoid_saturation_slope
from .partition import UniformPartition, select_index, unif_part
from .sigmoid import MAX_DERIVATIVE_ORDER, sigmoid, sigmoid_nth_derivative
from .stirling import stirling2, stirling_row

__version__ = "0.1.0"
