"""The boundary rules: each scalar handed to ``nn``, ``models``, ``dsp`` or
``sigsim`` is checked by one. A rule takes ``where``, the field's name
(``"SimConfig.pose_jitter_m"``), returns the value, and puts ``where`` and
the value's ``reprlib.repr`` in its error. None takes a bool as a number.

- ``count``: an int or numpy integer >= ``least``, else a ValueError;
- ``real``: a finite int, float or numpy integer or float in [lo, hi]
  ((lo, hi] if ``above``), else a ValueError, as a string or None is;
- ``instance``: an instance of ``cls``, else a TypeError;
- ``choice``: equal (``==``) to an entry of the tuple ``allowed``, else a
  ValueError; nothing is hashed, so a list is a ValueError too."""

import math
import reprlib

import numpy as np


def is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def count(where: str, value, least: int):
    if not (is_int(value) and value >= least):
        raise ValueError(f"{where} must be an integer >= {least}, got {reprlib.repr(value)}")
    return value


def real(where: str, value, lo=-math.inf, hi=math.inf, above: bool = False):
    # a finite value lies strictly between the infinities; NaN fails every comparison
    number = is_int(value) or isinstance(value, (float, np.floating))
    finite = number and -math.inf < value < math.inf
    if not (finite and (lo < value <= hi if above else lo <= value <= hi)):
        raise ValueError(f"{where} must be a finite number in {'(' if above else '['}"
                         f"{lo:g}, {hi:g}], got {reprlib.repr(value)}")
    return value


def instance(where: str, value, cls: type):
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{where} must be {article} {cls.__name__}, got {reprlib.repr(value)}")
    return value


def choice(where: str, value, allowed: tuple):
    if value not in allowed:     # a tuple's `in` compares with ==
        raise ValueError(f"{where} must be one of {allowed}, got {reprlib.repr(value)}")
    return value
