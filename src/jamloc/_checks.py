"""The rule of a count that ``nn``, ``models`` and ``sigsim`` share: an int
or numpy integer, and not a bool. Each caller adds its own bound and error
message."""

import numpy as np


def is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
