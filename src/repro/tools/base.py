"""Common backend interface for the Table 4 tools.

A backend is an agent (same verbs as :mod:`repro.experiment.agents`) that
may not support every modality: unsupported verbs raise
:class:`Unsupported` and the probe records the feature group as absent --
just as the paper's table leaves those cells empty.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.dom.element import Element
from repro.experiment.session import Session


class Unsupported(NotImplementedError):
    """The backend does not implement this interaction modality."""


class ToolBackend:
    """Base class for comparison-tool backends.

    Subclasses override the verbs they support.  ``automated`` is always
    True (every tool drives an automated browser); ``selenium_ready``
    mirrors Table 4's "Selenium ready" row (an integration property that
    cannot be probed behaviourally).
    """

    name = "tool"
    automated = True
    selenium_ready = False

    def __init__(self, seed: int = 5) -> None:
        self.rng = np.random.default_rng(seed)

    # -- the agent verbs ----------------------------------------------------

    def click_element(self, session: Session, element: Element) -> None:
        raise Unsupported(f"{self.name} has no click support")

    def type_text(self, session: Session, element: Element, text: str) -> None:
        raise Unsupported(f"{self.name} has no keyboard support")

    def scroll_by(self, session: Session, dy: float) -> None:
        raise Unsupported(f"{self.name} has no scrolling support")


#: name -> backend factory; filled by the individual tool modules via
#: :func:`register` and completed in :mod:`repro.tools.matrix` with the
#: HLISA/Selenium reference columns.
BACKEND_REGISTRY: Dict[str, Callable[[], "ToolBackend"]] = {}


def register(factory: Callable[[], ToolBackend]) -> Callable[[], ToolBackend]:
    """Class decorator registering a backend under its ``name``."""
    BACKEND_REGISTRY[factory.name] = factory  # type: ignore[attr-defined]
    return factory


def make_backend(name: str) -> ToolBackend:
    """Instantiate a registered backend by name."""
    # Import the tool modules lazily so registration has happened.
    from repro.tools import matrix  # noqa: F401  (fills the registry)

    return BACKEND_REGISTRY[name]()
