"""Exception types shared across the library, and the capacity budget:
cap, the most elements any one set or table may hold (a joint set, a
variable's set, the 2^p value table of a zonotope with p factors)."""

DEFAULT_CAP = 2**20


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


class CapacityError(RuntimeError):
    """An enumeration would exceed the configured cap."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


def check_cap(what, count, cap, step=None):
    """Raise CapacityError if building `what` with count elements would
    exceed cap; step, when known, is the reachability step being built."""
    if count > cap:
        at = "" if step is None else f" at step {step}"
        raise CapacityError(
            f"{what}{at} needs {count} elements, over the cap of {cap}",
            step=step)


class ModelError(ValueError):
    """A model document or expression failed to parse or validate."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class SearchFailure(RuntimeError):
    """No key candidate survived the final consistency check."""
