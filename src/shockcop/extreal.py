"""The two ends of the extended real line, as IEEE floats.

The generalized-inverse conventions use them: the infimum of the empty set is
+oo, the infimum of the whole line is -oo, and every CDF reads 0 at -oo and 1
at +oo.  Scalar and array paths share these values, so a result at an end
point is the same float either way.
"""

import math

POS_INF = math.inf
NEG_INF = -math.inf
