"""One domain per model parameter: every library entry point and the config refuse the same values.

Each entry point that takes epsilon, q, sigma or delta must raise
``DomainError`` on every out-of-domain value of that parameter, and
``harness._check_range``, which the scenario config and the CLI flags use,
must raise ``ConfigError`` on exactly the same values.
"""

import math

import numpy as np
import pytest

from missingrobust import (
    AdversaryLaw,
    ConfigError,
    Constant,
    ContaminationSpec,
    DomainError,
    Gaussian,
    PatternDistribution,
    RealisableSetSpec,
    adversary_two_point,
    all_star_contaminant,
    empirical_quantile,
    residual_set,
    robust_descent,
    sample_arbitrary,
    sample_realisable,
    sample_regression,
    trimmed_mean,
)
from missingrobust.harness import _check_range

BASE = Gaussian.univariate(0.0, 1.0)
DEFAULTS = {"epsilon": 0.1, "q": 0.8, "sigma": 1.0, "delta": 0.1}

# each entry point as a call on the parameters it takes, the others held at DEFAULTS
ENTRY_POINTS = {
    "Gaussian.univariate": (("sigma",), lambda p: Gaussian.univariate(0.0, p["sigma"])),
    "ContaminationSpec": (
        ("epsilon", "q"),
        lambda p: ContaminationSpec("realisable", BASE, p["epsilon"], p["q"], mechanism=Constant(1.0)),
    ),
    "AdversaryLaw": (
        ("sigma", "epsilon", "q"),
        lambda p: AdversaryLaw("f1", 1.0, p["sigma"], p["epsilon"], p["q"]),
    ),
    "adversary_two_point": (
        ("sigma", "epsilon", "q"),
        lambda p: adversary_two_point(2.0, p["sigma"], p["epsilon"], p["q"]),
    ),
    "sample_realisable": (
        ("epsilon", "q"),
        lambda p: sample_realisable(BASE, p["epsilon"], p["q"], Constant(1.0), 4, 0),
    ),
    "sample_arbitrary": (
        ("epsilon",),
        lambda p: sample_arbitrary(
            BASE, p["epsilon"], PatternDistribution.independent(1, 0.8), all_star_contaminant(1), 4, 0
        ),
    ),
    "sample_regression": (
        ("sigma", "epsilon"),
        lambda p: sample_regression(np.ones((4, 1)), [1.0], p["sigma"], p["epsilon"], 0.8, 1.0, 0),
    ),
    "RealisableSetSpec": (("epsilon", "q"), lambda p: RealisableSetSpec(BASE, p["epsilon"], p["q"])),
    "residual_set": (("sigma", "epsilon", "q"), lambda p: residual_set(p["sigma"], p["epsilon"], p["q"])),
    "trimmed_mean": (
        ("epsilon", "delta"),
        lambda p: trimmed_mean(np.arange(8.0), p["epsilon"], p["delta"], 0),
    ),
    "robust_descent": (
        ("epsilon", "delta"),
        lambda p: robust_descent(np.arange(8.0).reshape(4, 2), p["epsilon"], p["delta"], 0),
    ),
    "empirical_quantile": (("delta",), lambda p: empirical_quantile([1.0, 2.0], p["delta"])),
}

# bool and an int past the float range are not numbers; sigma's square must be finite and nonzero;
# log(4/delta) must be finite
OUTSIDE = {
    "epsilon": [1.0, -0.1, math.nan, True, 10**400],
    "q": [0, 1.5, PatternDistribution.independent(1, 0.5), True],
    "sigma": [0, -1.0, math.nan, math.inf, 1e-200, 1e200, 10**400],
    "delta": [0, 1e-320, math.nan, 2.0, True],
}
INSIDE = {
    "epsilon": [0, 0.0, 0.5, 0.999],
    "q": [1, 1.0, 0.01],
    "sigma": [1, 1e-150, 1e150],
    "delta": [1, 1.0, 1e-300],
}

CASES = [(entry, param) for entry, (params, _) in ENTRY_POINTS.items() for param in params]


@pytest.mark.parametrize("entry, param", CASES, ids=[f"{e}-{p}" for e, p in CASES])
def test_entry_point_refuses_what_the_config_refuses(entry, param):
    call = ENTRY_POINTS[entry][1]
    for value in OUTSIDE[param]:
        with pytest.raises(DomainError, match=f"^{param} must be "):
            call({**DEFAULTS, param: value})
        with pytest.raises(ConfigError, match=f"^--{param}: {param} must be "):
            _check_range(param, value, f"--{param}")
    for value in INSIDE[param]:
        call({**DEFAULTS, param: value})
        _check_range(param, value, f"--{param}")
