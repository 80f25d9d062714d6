"""Exception types and file-validation checks shared across the package."""

import zlib


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


def check_format(what: str, path, got, expected: str) -> None:
    """Raise ContractError unless a file's format tag is expected.

    A tag of the same family with another version (``…-v1`` for ``…-v2``)
    is named as unsupported; anything else is not such a file at all.
    """
    if got == expected:
        return
    family = expected.rsplit("-", 1)[0] + "-"
    if isinstance(got, str) and got.startswith(family):
        raise ContractError(f"{what} {path} has format {got!r}; only {expected!r} is read")
    raise ContractError(f"not a {what}: {path}")


def check_crc32(what: str, blob: bytes, stored) -> None:
    """Raise ContractError unless stored is the zlib.crc32 of blob."""
    computed = zlib.crc32(blob)
    if stored != computed:
        raise ContractError(f"{what} fails its crc32 check: stored {stored!r}, computed {computed}")
