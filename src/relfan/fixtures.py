"""Ready made frames used across the test suite and the demo scripts."""

from .hodge import Frame


def elliptic_frame() -> Frame:
    """Rank two inner piece of weight -1, one unipotent twist.

    The inner block of the distinguished nilpotent direction is the
    standard single shift, its image and kernel coincide, and the cell
    geometry over the quotient is one dimensional.
    """
    return Frame(
        rank=2,
        weight=-1,
        gram=((0, -1), (1, 0)),
        gamma=((1, 1), (0, 1)),
        hodge={(0, -1): 1, (-1, 0): 1},
        graded_types={0: {(0, 0): 1}, -2: {(-1, -1): 1}},
    )


def jordan3_frame() -> Frame:
    """Rank three inner piece of weight -2 whose twist has a three step
    weight filtration, so the existence space P strictly contains the
    image of the inner block and quotient orders can exceed one."""
    return Frame(
        rank=3,
        weight=-2,
        gram=((0, 0, 1), (0, -1, 0), (1, 0, 0)),
        gamma=((1, 2, 2), (0, 1, 2), (0, 0, 1)),
        hodge={(0, -2): 1, (-1, -1): 1, (-2, 0): 1},
        graded_types={0: {(0, 0): 1}, -2: {(-1, -1): 1}, -4: {(-2, -2): 1}},
    )
