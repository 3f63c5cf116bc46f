"""Hostile page furniture: overlays, interstitials, hidden inputs.

The builders install the DOM a hostile archetype presents into a *live*
document -- the same document the crawl's WebDriver is controlling --
so watchdog recovery manipulates real tree state (dismissing an overlay
removes its subtree from layout, hit-testing and the id registry)
rather than toggling a flag.  Each builder is idempotent per document:
re-installing replaces the previous instance, so repeated hostile
visits on one long-lived browser window never accumulate stale
furniture.
"""

from __future__ import annotations

from repro.dom.document import Document
from repro.dom.element import Element
from repro.geometry import Box

#: Well-known element ids, used by detection and cleanup.
OVERLAY_ID = "hostile-overlay"
OVERLAY_ACCEPT_ID = "hostile-overlay-accept"
CHALLENGE_ID = "hostile-challenge"
HIDDEN_INPUT_ID = "hostile-hidden-input"


def _replace(document: Document, element_id: str) -> None:
    """Remove a previously installed element with ``element_id``."""
    existing = document.get_element_by_id(element_id)
    if existing is not None:
        existing.remove()


def install_overlay(document: Document, kind: str = "modal") -> Element:
    """Install a full-page modal/cookie overlay with an accept button.

    The overlay covers the whole page, so it wins every hit test until
    dismissed -- the way a consent wall eats the clicks a crawler aims
    at the content underneath.
    """
    _replace(document, OVERLAY_ID)
    overlay = document.create_element(
        "div",
        Box(0, 0, document.width, document.height),
        id=OVERLAY_ID,
        classes=["overlay", kind],
        text="We value your privacy" if kind == "cookie-banner" else "",
    )
    document.create_element(
        "button",
        Box(
            document.width / 2.0 - 80.0,
            document.height / 2.0 + 40.0,
            160.0,
            40.0,
        ),
        parent=overlay,
        id=OVERLAY_ACCEPT_ID,
        text="Accept",
    )
    return overlay


def install_challenge(document: Document) -> Element:
    """Install a challenge interstitial (the checking-your-browser wall)."""
    _replace(document, CHALLENGE_ID)
    return document.create_element(
        "div",
        Box(0, 0, document.width, document.height),
        id=CHALLENGE_ID,
        classes=["challenge"],
        text="Checking your browser before accessing this site...",
    )


def install_hidden_input(document: Document) -> Element:
    """Install a required input with no layout box (display:none-like).

    Pointer interaction cannot reach it (no hit-test presence); only a
    scripted direct fill -- the fallback a robust automation layer keeps
    for exactly this case -- can populate it.
    """
    _replace(document, HIDDEN_INPUT_ID)
    field = document.create_element(
        "input",
        None,
        id=HIDDEN_INPUT_ID,
        classes=["hidden"],
        attributes={"required": "true"},
    )
    field.visible = False
    return field


def has_hostile_furniture(document: Document) -> bool:
    """Whether any hostile element is currently installed."""
    return any(
        document.get_element_by_id(element_id) is not None
        for element_id in (OVERLAY_ID, CHALLENGE_ID, HIDDEN_INPUT_ID)
    )
