from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from relfan.cones import Cone

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
    """A window as cones in operator space, for its oracles: each GridFace
    symbol and each chart Cone entry lifted by its grid."""
    return tuple(grid.lift_cone(e) if isinstance(e, Cone) else grid.cone(e) for e in window)
