"""Deep copies that share what cannot change.

The figure experiments copy a trained world once per measurement
(:func:`~repro.experiments.runner.clone_world`), and most of what a
world holds never changes once created: logged records, and the lists
of them that logs only append to and trim.  A hot type gives
``copy.deepcopy`` a ``__deepcopy__`` hook by one of two rules:

* a frozen value type whose every field is a str, a number, a bool or
  a tuple of those returns ``self``;
* a container whose elements are immutable calls
  :func:`deepcopy_state`, naming the attributes to copy one level deep.

Every attribute a hook does not name is deep-copied as before, so a
field added later is copied in full by default.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, TypeVar

T = TypeVar("T")


def deepcopy_state(obj: T, memo: Dict[int, Any],
                   **shallow: Callable[[Any], Any]) -> T:
    """A copy of *obj* for its ``__deepcopy__(memo)`` hook.

    Each attribute named in *shallow* is copied by calling its function
    on the original value (``list`` for a list of immutable elements,
    say).  Every other attribute is deep-copied through *memo*.  The copy
    is entered in *memo* before any attribute is copied, so a reference
    cycle back to *obj* resolves to the copy.
    """
    cls = type(obj)
    clone = cls.__new__(cls)
    memo[id(obj)] = clone
    state = clone.__dict__
    for name, value in obj.__dict__.items():
        copier = shallow.get(name)
        state[name] = (copy.deepcopy(value, memo) if copier is None
                       else copier(value))
    return clone
