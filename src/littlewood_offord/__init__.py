"""Exact-arithmetic concentration bounds for random-sign vector sums.

The package proves, instance by instance, that the probability of a
signed sum of unit-ball vectors hitting a target never exceeds the
non-uniform bound C(n, ceil((n+k)/2)) / 2^n with k = ceil ||target||:
it computes the exact atom probability, projects the instance to one
dimension along a dual-optimal witness, and checks the two-step chain
with rational arithmetic only.

The public names below are resolved on first access (PEP 562): reading
one imports the submodule that defines it and stores the name here.  So
`import littlewood_offord` loads no submodule, and a process that only
verifies instances never loads the campaign module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CapacityError", "CertificateError", "InputError",
               "UnsupportedNormOperation"),
    "exactnum": ("Rational", "binomial", "ceil_sqrt", "delta", "floor_sqrt",
                 "format_rational", "lo_bound", "parse_rational",
                 "rademacher_atom"),
    "norms": ("NormSpec", "NormValue", "RVector", "Witness", "ceil_norm",
              "dot", "double_dual_check", "dual_eval", "dual_spec",
              "dual_witness", "format_norm", "holder_check", "is_zero",
              "norm_eval", "parse_norm", "vector"),
    "concentration": ("EXHAUSTIVE_LIMIT", "PROBE_LIMIT", "atom_1d",
                      "atom_nd", "max_atom", "reachable_sums_nd",
                      "rho_max_1d", "sum_table_1d", "sum_table_nd"),
    "reduction": ("Instance", "ProjectedInstance", "VerificationReport",
                  "format_instance", "format_report", "in_unit_ball",
                  "make_instance", "parse_instance", "perturb_witness",
                  "project", "verify_instance"),
    "campaign": ("CampaignConfig", "CampaignReport", "Violation",
                 "format_campaign_config", "format_campaign_report",
                 "gen_extremal", "gen_random", "parse_campaign_config",
                 "run_campaign"),
}

# Public name -> the submodule that defines it.
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
