"""confein: decides whether a coordinate metric of any signature and
dimension n >= 3 is locally conformally Einstein.

Layers: symbolic scalar expressions (`expressions`, `evaluate`), tensor
fields on a chart (`geometry`), the curvature ladder (`curvature`),
pointwise genericity linear algebra (`genericity`), sharp obstruction
invariants (`obstructions`), the tractor-connection characterization
(`tractor`), worked example metrics (`catalog`) and a batch CLI (`cli`).
"""

__version__ = "0.1.0"

from .expressions import (  # noqa: F401
    Expr,
    ExprSyntaxError,
    parse,
    to_text,
    diff,
    simplify,
    symbol,
    rational,
    floating,
)
from .evaluate import (  # noqa: F401
    Bindings,
    DomainError,
    UnboundSymbolError,
    EvalProgram,
    compile_batch,
    evaluate,
)
