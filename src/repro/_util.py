"""Small shared helpers used across subpackages."""

from __future__ import annotations

import math
import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Tuple


def popcount(mask: int) -> int:
    """Number of set bits in a non-negative int (rumor-set cardinality)."""
    try:
        return mask.bit_count()  # Python >= 3.10
    except AttributeError:  # pragma: no cover - legacy interpreter
        return bin(mask).count("1")


def iter_bits(mask: int):
    """Yield the indices of set bits of ``mask`` in increasing order."""
    index = 0
    while mask:
        if mask & 1:
            yield index
        mask >>= 1
        index += 1


def ceil_log2(n: int) -> int:
    """Smallest k with 2**k >= n (and 1 for n <= 2, convenient for bounds)."""
    if n <= 2:
        return 1
    return int(math.ceil(math.log2(n)))


def ln(n: float) -> float:
    """Natural log clamped below at 1.0, the form used by threshold formulas.

    Complexity thresholds like Θ(log n) must stay positive for tiny n; the
    clamp keeps algorithm parameters well-defined in unit tests with n = 2.
    """
    return max(1.0, math.log(max(2.0, float(n))))


def lazy_exports(package: str, exports: Mapping[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``(__getattr__, __dir__)`` for a package ``__init__`` whose
    public names live in its submodules.

    ``exports`` maps each public name to the submodule (relative to
    ``package``) that defines it. A name is imported on first attribute
    access and stored in the package's globals, so every later access is
    a plain dict hit that never comes back here; a submodule's own name
    resolves the same way (``pkg.report`` imports ``pkg.report``). The
    package pays for a submodule only when somebody uses it.
    """

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is not None:
            value = getattr(import_module(f"{package}.{submodule}"), name)
        elif name.startswith("_"):
            # Underscore names are never looked up on disk: a probe for
            # ``__wrapped__`` or ``__test__`` is not a submodule import.
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            qualified = f"{package}.{name}"
            try:
                value = import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise  # the submodule exists; one of its imports failed
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
