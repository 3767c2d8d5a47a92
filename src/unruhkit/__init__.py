"""Accelerated two-qubit noise models: states, concurrence, Fisher information.

Library layout:

* ``qlinalg``     -- small dense real or complex linear algebra (kron,
                     partial trace, Hermitian eigendecomposition, PSD
                     square root)
* ``channels``    -- noisy initial states and the Unruh acceleration channel,
                     plus closed-form accelerated states
* ``entanglement``-- Wootters concurrence engine and closed-form evaluators
* ``fisher``      -- single-qubit (Bloch) and two-qubit (spectral) QFI
                     engines and the white-channel closed forms
* ``sweep``       -- parameter sweeps, figure presets, CSV emission
* ``verify``      -- cross-validation harness for every closed form
"""

from .version import __version__
from .errors import (
    DomainError,
    FamilyEvalError,
    NegativeRadicandError,
    NotHermitianError,
    NotPSDError,
    ParseError,
    SingularPointError,
    UnknownPresetError,
    UnruhKitError,
)
from .qlinalg import (
    SpectralDecomposition,
    eig_hermitian,
    is_density_matrix,
    kron2,
    partial_trace,
    sqrt_psd,
)
from .channels import (
    Channel,
    ColorCoeffs,
    ModelParams,
    RINDLER_R_MAX,
    WhiteCoeffs,
    accelerated_color,
    accelerated_state,
    accelerated_white,
    accelerated_whitecolor,
    color_coeffs,
    initial_state,
    phi_ket,
    r_from_acceleration,
    unruh_second_qubit,
    white_coeffs,
)
from .entanglement import (
    concurrence,
    concurrence_closed,
    concurrence_color_closed,
    concurrence_white_closed,
    concurrence_whitecolor_closed,
    spin_flip,
)
from .fisher import (
    KappaMuTerms,
    QfiValue,
    StateFamily,
    bloch_vector,
    kappa_mu_terms,
    qfi_single_bloch,
    qfi_single_white_closed,
    qfi_two_qubit_spectral,
    qfi_two_qubit_spectral_retry,
    qfi_two_qubit_terms,
    qfi_two_white_closed,
    qfi_two_white_terms,
    reduced_accelerated_qubit,
    state_family,
)
from .sweep import (
    FIGURE_PRESETS,
    Method,
    QfiForm,
    Quantity,
    SweepSpec,
    SweepTable,
    emit_csv,
    figure_preset,
    grid_values,
    parse_spec,
    render_csv_body,
    run_sweep,
)
from .verify import CheckRecord, VerificationReport, run_verification

__all__ = [name for name in dir() if not name.startswith("_")]
