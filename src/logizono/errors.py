"""Exception types shared across the library, and the capacity budget:
cap, the most elements any one set or table may hold (a joint set, a
variable's set, the 2^p value table of a zonotope with p factors)."""

DEFAULT_CAP = 2**20


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


class CapacityError(RuntimeError):
    """An enumeration would exceed the configured cap: building `what`
    needs count elements. step, when known, is the reachability step being
    built; reach sets it on an error raised without one, so the text is
    composed when read."""

    def __init__(self, what, count, cap, step=None):
        super().__init__(what, count, cap)
        self.what, self.count, self.cap, self.step = what, count, cap, step

    def __str__(self):
        at = "" if self.step is None else f" at step {self.step}"
        return (f"{self.what}{at} needs {self.count} elements, "
                f"over the cap of {self.cap}")


def check_cap(what, count, cap):
    """Raise CapacityError if building `what` with count elements would
    exceed cap."""
    if count > cap:
        raise CapacityError(what, count, cap)


class ModelError(ValueError):
    """A model document or expression failed to parse or validate."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class SearchFailure(RuntimeError):
    """No key candidate survived the final consistency check."""
