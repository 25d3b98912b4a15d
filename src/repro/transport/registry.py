"""Name -> sender-class registry, so scenarios can say ``variant="muzha"``."""

from __future__ import annotations

from typing import Dict, Type

from .base import TcpSenderBase
from .newreno import TcpNewReno
from .sack import TcpSack
from .vegas import TcpVegas
from .veno import TcpVeno

_REGISTRY: Dict[str, Type[TcpSenderBase]] = {
    "newreno": TcpNewReno,
    "sack": TcpSack,
    "vegas": TcpVegas,
    "veno": TcpVeno,
}


def register_variant(name: str, cls: Type[TcpSenderBase]) -> None:
    """Register a sender class under ``name`` (used by repro.core for Muzha)."""
    _REGISTRY[name] = cls


def sender_class(name: str) -> Type[TcpSenderBase]:
    """Look up a sender class; imports repro.core lazily for Muzha variants."""
    if name not in _REGISTRY:
        # TCP Muzha lives in repro.core; importing it registers the class.
        import repro.core  # noqa: F401  (side-effect import)

    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown TCP variant {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def known_variants() -> list:
    """All registered variant names (triggers the Muzha registration)."""
    import repro.core  # noqa: F401

    return sorted(_REGISTRY)
