"""Directional labels shared across the pipeline.

Up/down are encoded as +1/-1 throughout so that signs, votes and positions
stay plain integer arithmetic. 0 is reserved for "undefined" slots.
"""

UP = 1
DOWN = -1

_NAMES = {UP: "up", DOWN: "down"}


def direction_name(d: int) -> str:
    return _NAMES[int(d)]
