"""The input rules of errors: each value's verdict and message."""

import math
from fractions import Fraction

import numpy as np
import pytest

from coopd2d.errors import ConfigurationError, check_number

BIG = 2**1100  # an int too large for a float

# (value, refusal message for "trials" (an int > 0), for "eta" (a float in
# [0, 1])), None where the value is accepted.  Exact ints and floats take
# the fast path; bools, numpy scalars, Fractions and huge ints the
# ``numbers`` checks.
VERDICTS = [
    (True, "trials must be an integer > 0, got True",
     "eta must be a finite number in [0, 1], got True"),
    (np.bool_(True), "trials must be an integer > 0, got np.True_",
     "eta must be a finite number in [0, 1], got np.True_"),
    (np.float64(0.5), "trials must be an integer > 0, got np.float64(0.5)", None),
    (np.int64(1), None, None),
    (BIG, "trials must be an integer > 0, got %r" % BIG,
     "eta must be a finite number in [0, 1], got %r" % BIG),
    (math.nan, "trials must be an integer > 0, got nan",
     "eta must be a finite number in [0, 1], got nan"),
    (math.inf, "trials must be an integer > 0, got inf",
     "eta must be a finite number in [0, 1], got inf"),
    (-0.0, "trials must be an integer > 0, got -0.0", None),
    (Fraction(1, 3), "trials must be an integer > 0, got Fraction(1, 3)", None),
    (1, None, None),
    (1.0, "trials must be an integer > 0, got 1.0", None),
    (3, None, "eta must be a finite number in [0, 1], got 3"),
    (0, "trials must be an integer > 0, got 0", None),
]


@pytest.mark.parametrize(
    "value, trials, eta", VERDICTS, ids=["2**1100" if v is BIG else repr(v) for v, _, _ in VERDICTS]
)
def test_check_number_verdicts(value, trials, eta):
    for name, message in (("trials", trials), ("eta", eta)):
        if message is None:
            check_number(name, value)
        else:
            with pytest.raises(ConfigurationError) as info:
                check_number(name, value)
            assert str(info.value) == message
