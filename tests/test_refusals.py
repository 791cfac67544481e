"""Library refusals that no other test reaches: each public function names
the argument it refuses and the rule it breaks."""

from __future__ import annotations

import re

import pytest

from segre_degrees.asympt import discriminant_quotients, log_sv_hyperdet_asymptotic
from segre_degrees.eddeg import (binary_generic_ed_degree, generic_ed_degree,
                                 veronese_frobenius_ed_degree)
from segre_degrees.hyperdet import mixed_partial_at_symmetric_point, sv_hyperdet_degree
from segre_degrees.polar import (alpha_coefficients, chern_data_smooth_hypersurface,
                                 f_identity_holds)

REFUSALS = [
    (log_sv_hyperdet_asymptotic, (3, 5, 0), "weight must be positive, got 0"),
    (discriminant_quotients, (0, 3), "need n >= 1, got 0"),
    (discriminant_quotients, (3, 2), "need omega >= 3, got 2"),
    (veronese_frobenius_ed_degree, (-1, 3), "dimension must be non-negative, got -1"),
    (generic_ed_degree, ((1, 1), (1,)), "weights must match the number of factors"),
    (generic_ed_degree, ((1, 1), (0, 1)), "weights must be positive, got (0, 1)"),
    (binary_generic_ed_degree, (0,), "need at least one factor, got 0"),
    (sv_hyperdet_degree, ((1, 1, 1), 0), "weight must be positive, got 0"),
    (mixed_partial_at_symmetric_point, (1, 1), "need at least two factors, got 1"),
    (mixed_partial_at_symmetric_point, (3, 0), "need 1 <= k <= 3 differentiated variables, got 0"),
    (chern_data_smooth_hypersurface, (-1, 2), "dimension must be non-negative, got -1"),
    (chern_data_smooth_hypersurface, (2, 0), "hypersurface degree must be positive, got 0"),
    (alpha_coefficients, (-1, 0, 2), "dimensions must be non-negative, got n=-1, m=0"),
    (alpha_coefficients, (1, 1, 0), "hypersurface degree must be positive, got 0"),
    (f_identity_holds, (1, 2), "need n >= m >= 0, got n=1, m=2"),
]


@pytest.mark.parametrize("function, args, message", REFUSALS,
                         ids=[f"{f.__name__}{args}" for f, args, _ in REFUSALS])
def test_library_refusals_are_value_errors_that_name_the_rule(function, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)
