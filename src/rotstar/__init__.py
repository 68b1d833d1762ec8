"""Equilibria and linear stability of self-gravitating gaseous stars.

The package builds non-rotating and slowly rotating equilibria of a
compressible fluid coupled to Newtonian self-gravity, classifies their
axisymmetric linear stability through reduced quadratic forms and negative
mode counts, scans center-density families for turning-point behaviour, and
analyses the spectrum and growth of configurations whose rotation profile is
centrifugally (Rayleigh) unstable.
"""

from rotstar.errors import AmbiguousClassificationError, ConfigError, SolverError
from rotstar.eos import EquationOfState, asymptotic_polytrope, polytrope
from rotstar.radial import (
    RadialStar,
    assemble_oracle_form,
    family_scan_radial,
    solve_radial,
)
from rotstar.rotlaw import (
    FixedTotalMomentum,
    PowerLawMomentum,
    PowerTailLaw,
    RigidLaw,
    RotationSpec,
    TabulatedLaw,
    UnitMassMomentum,
    discriminant,
    omega_from_j,
)
from rotstar.equilibria import (
    AxiStar,
    axistar_from_radial,
    boundary_asymptotics_check,
    load_axistar,
    make_grid,
    save_axistar,
    solve_fixed_j,
    solve_fixed_omega,
)
from rotstar.bases import PerturbationBasis, perturbation_basis
from rotstar.forms import Inertia, QuadraticForm
from rotstar.stability import (
    assemble_generator,
    assemble_perturbation_energy,
    assemble_reduced_energy,
    generator_unstable_count,
    lift_azimuthal_velocity,
    restrict_mass_zero,
    stability_report,
)
from rotstar.spectral import (
    SpectrumReport,
    assemble_meridional_form,
    evolve_second_order,
    spectrum_report,
    velocity_basis,
)
from rotstar.families import (
    FamilyScanResult,
    bb1974_example,
    scan_fixed_j,
    scan_fixed_omega,
)

__version__ = "0.1.0"
