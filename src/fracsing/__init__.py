"""Toolkit for (-Delta)^alpha u = u^p + k delta_0 on the unit ball.

Names are imported from their modules (fracsing.core, fracsing.green,
fracsing.picard, fracsing.stability, fracsing.mountainpass,
fracsing.classify); the package itself exports only __version__ and
imports none of them.
"""

__version__ = "0.1.0"
