"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Extents of an argument do not match what the operation requires."""


class ContractError(ValueError):
    """An argument violates an operation's contract (kind, range, finiteness)."""


class NonFiniteError(ContractError):
    """A tensor would hold NaN or infinity, as when training diverges."""


def check_keys(what: str, got, expected, noun: str = "keys") -> None:
    """Raise ContractError unless got holds exactly the names in expected."""
    unknown = sorted(set(got) - set(expected))
    missing = sorted(set(expected) - set(got))
    parts = [
        f"{kind} {noun} {names}"
        for kind, names in (("unknown", unknown), ("missing", missing))
        if names
    ]
    if parts:
        raise ContractError(f"{what} has {' and '.join(parts)}")
