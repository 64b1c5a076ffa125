from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from relfan.qlinalg import vscale, vsub

settings.register_profile(
    "exact",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# more examples for the property tests of a chosen file, on request:
# python -m pytest tests/test_classifying.py --hypothesis-profile=deep
settings.register_profile("deep", parent=settings.get_profile("exact"), max_examples=600)
settings.load_profile("exact")


def fracs(max_num=9, max_den=4):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def int_fracs(lo=-9, hi=9):
    return st.integers(min_value=lo, max_value=hi).map(Fraction)


def lifted(window, grid):
    """A window of GridFace symbols as cones in operator space, for its
    oracles."""
    return tuple(grid.cone(e) for e in window)


def pencil_commutes(fan, a, b):
    """Commutation via the kernel criterion: two pencil operators
    commute exactly when lam_a * h_b - lam_b * h_a is killed by the
    inner block.  None when either operator is off the pencil."""
    la = fan.frame.restriction_multiple(a)
    lb = fan.frame.restriction_multiple(b)
    if la is None or lb is None:
        return None
    w = vsub(vscale(la, fan.frame.e_image(b)), vscale(lb, fan.frame.e_image(a)))
    return fan.kernel_space.contains(w)
