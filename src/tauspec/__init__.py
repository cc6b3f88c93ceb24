"""tauspec: temporal functions of scattering processes.

Given a complex frequency response S(omega), the logarithmic derivative

    tau(omega) = -i d ln S / d omega = tau1 + i tau2

splits into a delay time tau1 (phase slope) and a formation time tau2
(minus the log-modulus slope).  This package extracts both from sampled
data, evaluates them for closed-form models, and checks the dispersion
and balance identities they satisfy.
"""

from .core import (
    ComplexSpectrum,
    FrequencyGrid,
    PoleZeroModel,
    TemporalSpectrum,
    evaluate_model,
    extend_negative_frequencies,
    model_tau,
    reconstruct,
)
from .dispersion import (
    Contour,
    KKReport,
    frequency_sum_rule,
    hilbert_transform,
    kk_residual,
    residue_time_domain,
    sum_rule_scale,
    tau_kk_residual,
    time_sum_rule,
    winding_number,
)
from .extract import (
    BroadeningSpectrum,
    ExtractionOptions,
    UncertaintyBudget,
    anomalous_response,
    broadening,
    combined_response,
    extract_temporal,
    normal_response,
    temporal_wigner,
    uncertainty_product,
)
from .physics import (
    FormationSummary,
    KineticMediumParams,
    LorentzMediumParams,
    MediumInequalityResult,
    OscillatorParams,
    PhotonParams,
    TwoLevelParams,
    breit_wigner_tau,
    bremsstrahlung_formation,
    cross_section_tau2,
    group_index,
    group_index_coefficient,
    lorentz_medium,
    mean_delay,
    medium_inequality,
    oscillator_green,
    oscillator_tau,
    photon_response,
    photon_tau,
    resolvent_delay,
    resolvent_delay_sum,
)
from .scatter1d import (
    PotentialProfile,
    ScatteringMatrix1D,
    complex_time,
    find_resonance,
    s_matrix,
    transfer_matrix,
    transmission_probability,
)

__version__ = "0.1.0"
