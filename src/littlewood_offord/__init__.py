"""Exact-arithmetic concentration bounds for random-sign vector sums.

The package proves, instance by instance, that the probability of a
signed sum of unit-ball vectors hitting a target never exceeds the
non-uniform bound C(n, ceil((n+k)/2)) / 2^n with k = ceil ||target||:
it computes the exact atom probability, projects the instance to one
dimension along a dual-optimal witness, and checks the two-step chain
with rational arithmetic only.
"""

from .errors import (CapacityError, CertificateError, InputError,
                     PerturbationError, UnsupportedNormOperation)
from .exactnum import (Rational, binomial, ceil_sqrt, delta, floor_sqrt,
                       format_rational, lo_bound, parse_rational,
                       rademacher_atom)
from .norms import (NormSpec, NormValue, RVector, Witness, ceil_norm, dot,
                    double_dual_check, dual_eval, dual_spec, dual_witness,
                    format_norm, holder_check, is_zero, norm_eval, parse_norm,
                    vector)
from .concentration import (EXHAUSTIVE_LIMIT, PROBE_LIMIT, atom_1d, atom_nd,
                            max_atom, reachable_sums_nd, rho_max_1d,
                            sum_table_1d, sum_table_nd)
from .reduction import (Instance, ProjectedInstance, VerificationReport,
                        format_instance, format_report, in_unit_ball,
                        make_instance, parse_instance, perturb_witness,
                        project, verify_instance)
from .campaign import (CampaignConfig, CampaignReport, Violation,
                       format_campaign_config, format_campaign_report,
                       gen_extremal, gen_random, parse_campaign_config,
                       run_campaign)

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig", "CampaignReport", "CapacityError", "CertificateError",
    "EXHAUSTIVE_LIMIT", "InputError", "Instance", "NormSpec",
    "NormValue", "PROBE_LIMIT", "PerturbationError", "ProjectedInstance",
    "RVector", "Rational", "UnsupportedNormOperation", "VerificationReport",
    "Violation", "Witness", "atom_1d", "atom_nd", "binomial", "ceil_norm",
    "ceil_sqrt", "delta", "dot", "double_dual_check", "dual_eval", "dual_spec",
    "dual_witness", "floor_sqrt", "format_campaign_config",
    "format_campaign_report", "format_instance", "format_norm",
    "format_rational", "format_report", "gen_extremal", "gen_random",
    "holder_check", "in_unit_ball", "is_zero", "lo_bound", "make_instance",
    "max_atom", "norm_eval", "parse_campaign_config", "parse_instance",
    "parse_norm", "parse_rational", "perturb_witness", "project",
    "rademacher_atom", "reachable_sums_nd", "rho_max_1d", "run_campaign",
    "sum_table_1d", "sum_table_nd", "vector", "verify_instance",
]
