"""Moving frames, spin geometry and discrete Dirac operators for surfaces in 4-space.

The package is organized bottom-up:

* ``expr`` — immersion DSL with exact 3-jet evaluation,
* ``geometry`` — frames, second fundamental form, torsion, gauge angle,
  tube metric,
* ``clifford`` — gamma conventions, constant spinor bases, spin lifts,
* ``dirac`` — pointwise operator symbols and periodic-grid assembly,
* ``weierstrass`` — frame-derived kernel spinors and tangent
  reconstruction from spinor bilinears,
* ``cli`` — the ``dirac-surface`` command-line front end,
* ``corpus`` — bundled immersion files.
"""

from .expr import (
    ExprError,
    ImmersionFileError,
    ImmersionSpec,
    Jet2,
    eval_jet2,
    load_immersion,
    parse_expression,
    parse_immersion_file,
    unparse,
)
from .geometry import (
    ConnectionData,
    DegenerateImmersionError,
    FrameBranchError,
    FrameData,
    GaugeData,
    TubeSample,
    frames_at,
    gauge_at,
    tube_metrics_at,
)
from .clifford import (
    SpinMatrix,
    basis_round,
    basis_square,
    cospinor,
    gamma,
    gauge_rotation,
    iota_g,
    iota_r,
    so4_pairing,
    spin_lift,
)
from .dirac import (
    DimensionCapError,
    DiscreteOperator,
    NonPeriodicDomainError,
    OperatorSymbol,
    SpectrumInvariantError,
    assemble_grid_operator,
    dirac_symbol,
    eigenvalues,
    gauged_dirac_symbol,
)
from .weierstrass import (
    ReconstructionReport,
    reconstruct,
)

__version__ = "0.1.0"
