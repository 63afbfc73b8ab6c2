"""frontlab: stability laboratory for combustion reaction-diffusion steady states.

Modules map onto the pipeline: `model` (reaction terms, block systems,
the Model interface), `spectral` (Fourier symbols, abscissas, sweeps, exact
propagators), `front` (traveling-wave ODE and shooting), `sim` (periodic
pseudo-spectral IMEX evolution), `norms` (weighted/unweighted measurements,
decay fits, theorem verdicts), `cli` (scenario-driven command line), and
`blocks` (the sample budget of blocked evaluation, the CSV row writer).
"""

from .front import FrontProfile, OrbitResult, integrate_orbit, shoot_speed
from .model import (
    BlockSystem,
    Model,
    ModelParams,
    eval_g,
    make_exo_endo_system,
    make_gasless_system,
)
from .norms import (
    DecayFit,
    NormSeries,
    VerdictReport,
    fit_decay,
    norm_unweighted,
    norm_weighted,
    verify_stability_theorem,
)
from .sim import (
    FieldState,
    Grid,
    Perturbation,
    apply_linear_exact,
    build_perturbation,
    linear_propagator,
    run,
    step_imex,
)
from .spectral import (
    SpectrumSweep,
    SymbolMatrix,
    block_abscissas,
    eval_symbol,
    exact_propagator,
    optimal_weight,
    semigroup_envelope,
    sweep_symbol,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BlockSystem", "Model", "ModelParams", "eval_g",
    "make_exo_endo_system", "make_gasless_system",
    "SpectrumSweep", "SymbolMatrix", "block_abscissas",
    "eval_symbol", "exact_propagator", "optimal_weight", "semigroup_envelope",
    "sweep_symbol",
    "FrontProfile", "OrbitResult", "integrate_orbit", "shoot_speed",
    "FieldState", "Grid", "Perturbation", "apply_linear_exact",
    "build_perturbation", "linear_propagator", "run", "step_imex",
    "DecayFit", "NormSeries", "VerdictReport", "fit_decay",
    "norm_unweighted", "norm_weighted", "verify_stability_theorem",
]
