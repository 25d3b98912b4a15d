"""Network Allocation Vector: 802.11 virtual carrier sense."""

from __future__ import annotations


class Nav:
    """Tracks the time until which the medium is virtually reserved."""

    def __init__(self) -> None:
        #: Absolute time at which the current reservation ends.  A plain
        #: attribute (the DCF reads it on every idle edge); move it only
        #: through :meth:`set` / :meth:`clear`.
        self.until = 0.0

    def set(self, until: float) -> bool:
        """Extend the reservation to ``until`` if later than the current one.

        Returns True if the NAV actually moved (callers use this to know
        whether a medium-state re-evaluation is needed).
        """
        if until > self.until:
            self.until = until
            return True
        return False

    def busy(self, now: float) -> bool:
        """True while the virtual reservation is still in effect."""
        return now < self.until

    def clear(self) -> None:
        """Drop any reservation (used on channel reset in tests)."""
        self.until = 0.0
