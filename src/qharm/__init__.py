"""q-harmonic analysis on the lattice {q^n : n in Z}.

Core objects: QParams / QLattice / LatticeFunction, the self-inverse
q-Bessel Fourier transform, translation and convolution operators, the
q-positive-type criterion and the constructive Bochner pipeline.
"""
from .errors import (
    LatticeMismatchError,
    PoleProximityError,
    PrecisionLossError,
    QHarmError,
    TruncationCapError,
)
from .qlattice import (
    LatticeFunction,
    QLattice,
    QParams,
    hahn_exton_jv_detail,
    jackson_integral,
    lp_norm,
    q_exponential,
    q_pochhammer_finite,
    q_pochhammer_infinite,
)
from .bessel import bessel_bound_envelope, hahn_exton_jv, lattice_jv_table
from .transform import (
    TransformTable,
    build_transform_table,
    delta_qv,
    fourier_transform,
    fourier_transform_detail,
    verify_inversion,
    verify_l1_bound,
    verify_orthogonality,
    verify_plancherel,
)
from .operators import (
    convolution,
    gauss_delta_limit_check,
    gauss_kernel,
    gauss_kernel_function,
    qv_membership_probe,
    translation,
    translation_kernel,
    translation_via_kernel,
    young_inequality_check,
)
from .positivity import (
    BochnerReport,
    QMeasure,
    bochner_cutoff,
    bochner_reconstruct,
    gram_matrix,
    is_q_positive_type,
    measure_convolution,
    measure_fourier_transform,
    measure_product_identity_error,
    product_positive_type_check,
    verify_l1_spectrum_mass,
    verify_nonneg_spectrum,
    verify_quadratic_form_positivity,
    verify_transform_positive_type,
    wiener_membership,
)
from .lattice_io import (
    CSVFormatError,
    lattice_function_to_csv,
    load_lattice_function,
    read_lattice_function,
    report_to_json,
    save_lattice_function,
    write_lattice_function,
)
from .verify import VerificationSuiteResult, run_suite, statement_ids

__version__ = "0.1.0"
