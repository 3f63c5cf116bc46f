"""Full-field golden digests of synthesised event streams.

Every interaction result (the detector battery, the arms-race
tournament, the ``interact`` benchmark) is computed from the DOM events
the input pipeline synthesises.  These digests pin those events field
by field -- every :class:`~repro.events.event.Event` field, including
the target, its ``target_box`` snapshot and ``extra`` -- over whole
sessions, so a change to event construction, hit testing or dispatch
that alters anything a page could observe fails here.

Events are captured at :meth:`EventTarget.dispatch_event`, the one
entry point every event passes through, so non-bubbling events
(``mouseenter``/``mouseleave``) and events no listener asked for are
pinned too.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.behaviors import (
    SpontaneousMovements,
    idle_select_deselect,
    misclick_then_correct,
    warm_up_cursor,
)
from repro.browser.input_pipeline import InputPipeline, MIDDLE_BUTTON, RIGHT_BUTTON
from repro.browser.window import Window
from repro.core.hlisa_action_chains import HLISA_ActionChains
from repro.dom.document import Document
from repro.events.dispatch import EventTarget
from repro.events.event import Event
from repro.events.recorder import EventRecorder
from repro.events.taxonomy import ALL_INTERACTION_EVENTS
from repro.experiment import (
    BrowsingScenario,
    HLISAAgent,
    HumanAgent,
    NaiveAgent,
    SeleniumAgent,
    Session,
)
from repro.experiment.agents import InjectedEventsAgent
from repro.experiment.replay import ReplayAgent
from repro.geometry import Box, Point
from repro.humans import HumanProfile
from repro.tools.base import Unsupported, make_backend
from repro.webdriver import ActionChains
from repro.webdriver.driver import make_browser_driver
from repro.webdriver.webelement import WebElement

_FIELDS = tuple(field.name for field in dataclasses.fields(Event))


def _target_key(target):
    if target is None:
        return None
    return (type(target).__name__, getattr(target, "id", None), getattr(target, "tag", None))


def stream_digest(events):
    """Digest of every field of every event, in dispatch order."""
    digest = hashlib.sha256()
    for event in events:
        row = []
        for name in _FIELDS:
            value = getattr(event, name)
            if name == "target":
                value = _target_key(value)
            elif name == "extra":
                value = [] if value is None else sorted(value.items())
            row.append(value)
        digest.update(repr(tuple(row)).encode())
    return digest.hexdigest()


@pytest.fixture
def dispatched(monkeypatch):
    """Every event passed to ``EventTarget.dispatch_event``, in order."""
    events = []
    original = EventTarget.dispatch_event

    def dispatch_event(target, event):
        events.append(event)
        return original(target, event)

    monkeypatch.setattr(EventTarget, "dispatch_event", dispatch_event)
    return events


# -- scenarios ----------------------------------------------------------------


def _agent(kind, seed):
    if kind == "hlisa":
        return HLISAAgent(seed=seed)
    if kind == "selenium":
        return SeleniumAgent()
    if kind == "human":
        return HumanAgent(HumanProfile(seed=seed))
    return NaiveAgent(seed=seed)


def _browsing(kind, seed):
    def run():
        BrowsingScenario(seed=seed).run(_agent(kind, 500 + seed))

    return run


def _injected():
    BrowsingScenario(seed=2, clicks=8).run(InjectedEventsAgent())


def _furnish(document):
    """A page whose hit tests see nesting, overlap, hidden and box-less
    elements, and a subtree that was removed and re-appended."""
    panel = document.create_element("div", Box(100, 100, 700, 500), id="panel")
    document.create_element("button", Box(150, 150, 200, 120), id="inner", parent=panel)
    document.create_element("span", Box(200, 180, 60, 40), id="deep", parent=panel.children[0])
    document.create_element("div", Box(300, 200, 300, 300), id="overlap")
    hidden = document.create_element("div", Box(0, 0, 1366, 768), id="hidden")
    hidden.visible = False
    document.create_element("div", None, id="boxless")
    moved = document.create_element("div", Box(500, 300, 400, 200), id="moved")
    document.create_element("a", Box(520, 320, 80, 30), id="moved-link", parent=moved)
    moved.remove()
    document.body.append_child(moved)
    document.create_element("textarea", Box(420, 620, 520, 120), id="area")


def _replay():
    source = (
        BrowsingScenario(seed=3, clicks=10).run(HumanAgent(HumanProfile(seed=5))).recorder
    )
    session = Session(automated=True, page_height=768.0 + 4000.0)
    _furnish(session.document)
    ReplayAgent(source).run(session)


def _drag_rig():
    driver = make_browser_driver()
    document = driver.window.document
    source = document.create_element(
        "div", Box(150, 400, 90, 90), id="card", attributes={"draggable": "true"}
    )
    target = document.create_element("div", Box(900, 420, 160, 120), id="bin")
    EventRecorder(ALL_INTERACTION_EVENTS).attach(driver.window)
    return driver, source, target


def _drag_manual():
    driver, source, target = _drag_rig()
    pipeline = driver.pipeline
    start = driver.window.page_to_client(source.center)
    end = driver.window.page_to_client(target.center)
    pipeline.move_mouse_to(start.x, start.y, force_event=True)
    pipeline.mouse_down()
    steps = 12
    for i in range(1, steps + 1):
        driver.window.clock.advance(16)
        pipeline.move_mouse_to(
            start.x + (end.x - start.x) * i / steps,
            start.y + (end.y - start.y) * i / steps,
            force_event=True,
        )
    pipeline.mouse_up()
    # A press that never travels past the drag threshold is a click.
    driver.window.clock.advance(300)
    start = driver.window.page_to_client(source.center)
    pipeline.move_mouse_to(start.x, start.y, force_event=True)
    pipeline.mouse_down()
    driver.window.clock.advance(60)
    pipeline.move_mouse_to(start.x + 2, start.y + 1, force_event=True)
    pipeline.mouse_up()


def _drag_selenium():
    driver, source, target = _drag_rig()
    chain = ActionChains(driver)
    chain.drag_and_drop(WebElement(driver, source), WebElement(driver, target))
    chain.perform()


def _drag_hlisa():
    driver, source, target = _drag_rig()
    chain = HLISA_ActionChains(driver, seed=4)
    chain.drag_and_drop(WebElement(driver, source), WebElement(driver, target))
    chain.perform()


def _clicks():
    """Double and triple clicks, right and middle clicks, modifier-held
    clicks and a held-button move, plus focus changes."""
    driver = make_browser_driver()
    window, pipeline = driver.window, driver.pipeline
    clock = window.clock
    EventRecorder(ALL_INTERACTION_EVENTS).attach(window)
    submit = window.page_to_client(driver.find_element_by_id("submit").dom_element.center)
    pipeline.move_mouse_to(submit.x + 3.4, submit.y - 2.6, force_event=True)
    for _ in range(3):
        pipeline.mouse_down()
        clock.advance(70)
        pipeline.mouse_up()
        clock.advance(120)
    clock.advance(700)
    for button in (RIGHT_BUTTON, MIDDLE_BUTTON):
        pipeline.mouse_down(button)
        clock.advance(90)
        pipeline.mouse_up(button)
        clock.advance(250)
    for modifier in ("Shift", "Control", "Alt", "Meta", "AltGraph"):
        pipeline.key_down(modifier)
        clock.advance(40)
        pipeline.mouse_down()
        clock.advance(30)
        pipeline.move_mouse_to(submit.x + 20.5, submit.y + 9.5)
        clock.advance(30)
        pipeline.mouse_up()
        pipeline.key_up(modifier)
        clock.advance(600)
    area = window.page_to_client(driver.find_element_by_id("text_area").dom_element.center)
    pipeline.move_mouse_to(area.x, area.y, force_event=True)
    pipeline.mouse_down()
    clock.advance(80)
    pipeline.mouse_up()
    clock.advance(200)
    pipeline.move_mouse_to(5.0, 700.0, force_event=True)
    pipeline.mouse_down()
    clock.advance(80)
    pipeline.mouse_up()


def _smooth_wheel():
    window = Window(Document(1366, 6000), smooth_scroll=True)
    _furnish(window.document)
    pipeline = InputPipeline(window)
    EventRecorder(ALL_INTERACTION_EVENTS).attach(window)
    window.clock.advance(15)
    pipeline.move_mouse_to(230.2, 210.7)
    for tick in range(12):
        pipeline.wheel()
        window.clock.advance(40 + 7 * tick)
    pipeline.wheel(-57.0)
    window.clock.advance(90)
    pipeline.wheel(-20.0, delta_x=15.0)
    window.clock.advance(90)
    pipeline.move_mouse_to(600.0, 400.0)
    for _ in range(3):
        pipeline.wheel(114.0)
        window.clock.advance(30)


def _keyboard():
    """Keyboard scrolling with no text focus, then typing into a field."""
    window = Window(Document(1366, 9000))
    _furnish(window.document)
    pipeline = InputPipeline(window)
    EventRecorder(ALL_INTERACTION_EVENTS).attach(window)
    clock = window.clock
    pipeline.move_mouse_to(700.0, 300.0)
    for key in ("ArrowDown", "ArrowDown", "PageDown", " ", "ArrowUp", "End", "PageUp", "Home"):
        pipeline.key_down(key)
        clock.advance(55)
        pipeline.key_up(key)
        clock.advance(160)
    pipeline.move_mouse_to(600.0, 680.0, force_event=True)
    pipeline.mouse_down()
    clock.advance(75)
    pipeline.mouse_up()
    for key in ("h", "Shift", "I", "Shift", " ", "x", "Backspace", "Enter", "Tab"):
        clock.advance(95)
        pipeline.key_down(key)
        clock.advance(65)
        if key != "Shift":
            pipeline.key_up(key)
    pipeline.key_up("Shift")


def _page_lifecycle():
    """Visibility changes (``extra``), window focus and touch input."""
    window = Window(Document(1366, 2000))
    _furnish(window.document)
    pipeline = InputPipeline(window)
    EventRecorder(ALL_INTERACTION_EVENTS).attach(window)
    window.clock.advance(30)
    pipeline.touch_start(250.0, 190.0)
    window.clock.advance(110)
    pipeline.touch_end()
    window.clock.advance(500)
    window.set_visibility("hidden")
    window.clock.advance(2500)
    window.set_visibility("visible")
    window.scroll_to(0, 333.3)
    pipeline.touch_start(640.6, 410.4)
    window.clock.advance(90)
    pipeline.touch_end()


def _tool(name):
    """A Table 4 tool clicking and moving to a relocating target, then
    typing and scrolling where it can (unsupported verbs are skipped)."""

    def run():
        backend = make_backend(name)
        session = Session(automated=True, page_height=3000.0)
        document = session.document
        target = document.create_element("button", Box(620, 340, 90, 90), id="target")
        area = document.create_element("textarea", Box(420, 560, 520, 150), id="area")
        rng = np.random.default_rng(77)
        for _ in range(12):
            try:
                backend.click_element(session, target)
            except Unsupported:
                pass
            if hasattr(backend, "move_to_element"):
                session.clock.advance(float(rng.uniform(100, 300)))
                backend.move_to_element(session, target)
            session.clock.advance(float(rng.uniform(180, 600)))
            target.box = Box(
                float(rng.uniform(10, 1266)), float(rng.uniform(10, 668)), 90.0, 90.0
            )
        for verb in (
            lambda: backend.type_text(session, area, "Hi, Ann. Go!"),
            lambda: backend.scroll_by(session, 900.0),
        ):
            try:
                verb()
            except Unsupported:
                pass

    return run


def _scroller():
    backend = make_backend("Scroller")
    session = Session(automated=True, page_height=6000.0)
    backend.scroll_by(session, 1500.0)
    session.clock.advance(800.0)
    backend.scroll_by(session, -600.0)


def _appendix_f():
    """The experiment-level behaviours: warm-up, wandering, misclicks
    and an idle select-deselect."""
    driver = make_browser_driver(page_height=2000.0)
    EventRecorder(ALL_INTERACTION_EVENTS).attach(driver.window)
    rng = np.random.default_rng(8)
    warm_up_cursor(driver, rng)
    wander = SpontaneousMovements(driver, probability=0.6, seed=3)
    for _ in range(6):
        wander.maybe_wander()
    misclick_then_correct(driver, driver.find_element_by_id("submit"), rng)
    idle_select_deselect(driver, rng)
    misclick_then_correct(driver, driver.find_element_by_id("home_link"), rng)


def _webdriver_script():
    """``send_keys`` focuses a field, ``click`` moves focus to a button,
    and a page load under the hovered button resets the hover before the
    next move."""
    driver = make_browser_driver()
    window = driver.window
    EventRecorder(ALL_INTERACTION_EVENTS).attach(window)
    driver.find_element_by_id("text_area").send_keys("Hi There")
    window.clock.advance(250.0)
    driver.find_element_by_id("submit").click()
    window.clock.advance(400.0)
    page = Document(1366.0, 2000.0)
    page.create_element("a", Box(400, 300, 300, 160), id="next")
    driver.page_loader = lambda url: page
    driver.get("https://example.test/next")
    window.clock.advance(120.0)
    ActionChains(driver).move_by_offset(5, 3).perform()


SCENARIOS = {
    **{
        f"browsing-{kind}-{seed}": _browsing(kind, seed)
        for kind in ("hlisa", "selenium", "human", "naive")
        for seed in (0, 1)
    },
    **{
        f"tool-{slug}": _tool(name)
        for slug, name in (
            ("hmm", "HMM"),
            ("pyclick", "PyC"),
            ("bezmouse", "BezMouse"),
            ("pyhm", "pyHM"),
            ("clickbot", "ClickBot"),
            ("thesis-typing", "[20]"),
        )
    },
    "tool-scroller": _scroller,
    "appendix-f": _appendix_f,
    "webdriver-script": _webdriver_script,
    "injected": _injected,
    "replay": _replay,
    "drag-manual": _drag_manual,
    "drag-selenium": _drag_selenium,
    "drag-hlisa": _drag_hlisa,
    "clicks": _clicks,
    "smooth-wheel": _smooth_wheel,
    "keyboard": _keyboard,
    "page-lifecycle": _page_lifecycle,
}

#: (event count, digest) per scenario.
GOLDEN = {
    "appendix-f": (1017, "2d851fbf15f5b230005dc490fb5500471a0116983cec0963e721c83049722cb7"),
    "browsing-hlisa-0": (4610, "a71d6012151ea4173ac4d8507c736db4e706e72d863f3fbb70fe994101e6d01c"),
    "browsing-hlisa-1": (4970, "9245883e5c018a7807c29c1e73946911ecf2eceb5b65c89e565a0e0005cc41e6"),
    "browsing-human-0": (6659, "bb729a2925abf9a93d837899fc5d032304f18ec4a544020bf39f4613f4ec5dba"),
    "browsing-human-1": (7005, "adb604075b3d10942574b9b9d0f7b435ed525b264db90c9d869b83595b768a7a"),
    "browsing-naive-0": (6857, "d0467bd61d1b51a003df3c8fe4c55cec3a72252c530d24ebd9a925f6161b7820"),
    "browsing-naive-1": (7525, "e21e36b150731fc8adce949f46a6f35c5d5848fd7153e90819222a092c59fbbe"),
    "browsing-selenium-0": (2334, "22694d06273e897672389dab0de93fd2d09c4127a36376ce155816d69e5ec623"),
    "browsing-selenium-1": (2362, "1988fc0e9058beac71479156b89b7b55a22693630148456c313e745069bdf35c"),
    "clicks": (106, "ccb2f1a905ac91fdc29ae015b2f1b355430b7f55c24e11c655e85db946173ff7"),
    "drag-hlisa": (442, "2c7c80d356a33a9329a199e835327fdcb8025801ad1a40103a86cb6c01d498b4"),
    "drag-manual": (83, "2c96fa91de9d04c5b9420f258257856001398238de500fc5dc14b24f8669e93b"),
    "drag-selenium": (120, "d007af72701d8f5b249ff61b19f42ef86c711b33da05f6b847ad608cff049700"),
    "injected": (219, "1e3c3c2475052ad2ac7e693eb19926e8d07175b718d63d7cdda806a6354aa623"),
    "keyboard": (63, "0e354eafd8a846e16add67f2859006d4215453116a0ce1757cffa3bd536c7911"),
    "page-lifecycle": (9, "05a332113172a554803418dbbb73aff701863181f58022b5fdd92840b1a57e26"),
    "replay": (3533, "290c694ee511a97ab6298f6e4199d8e9bffe649c6f2394a5fd432948ab4d8652"),
    "smooth-wheel": (129, "afb6e656f87b983ae5df38fb60e86bfcccb9c94e3190a17106bc7287d18b5dbe"),
    "tool-bezmouse": (3092, "ad639a95acf205ffd5b888f98dc992a3b598122e83ee0fd76836930604a32de6"),
    "tool-clickbot": (2855, "cfeb6764d0e9540301a5913daf6e62baa73c39213787f520bd2e9803fc9ab173"),
    "tool-hmm": (3022, "c0f819f048577967f1ec4df049ab023c42cc50f11ec6ea56d7297a08301a1b2e"),
    "tool-pyclick": (3572, "612eccaf62a5a9cee57c0b0efa6be1ab76ab640ace7f73533295d1e6a87a8a52"),
    "tool-pyhm": (3332, "0a0871059f12d24ec5981bdfcb4b1498d89b6d16315f00d1c11e622c3d0e04d0"),
    "tool-scroller": (38, "836887b52375256faa3b9739e310078cd87aa65580231014a5b8aa2c0fb304c8"),
    "tool-thesis-typing": (131, "132d2c05a77932c085f3f71fb0b6244f1e2ee1d159ca2f3aebce378371d0b145"),
    "webdriver-script": (73, "31b5bc159cbb887daf8522ef0618fd5700dba93441d34c3dbdcf16c9cc9e7fd7"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_stream_matches_golden(name, dispatched):
    SCENARIOS[name]()
    assert (len(dispatched), stream_digest(dispatched)) == GOLDEN[name]


def test_digest_covers_every_field():
    """A change to any single field changes the digest."""
    base = Event(
        "mousemove", 12.0, None, 1.0, 2.0, 3.0, 4.0, 0, 1, 0.0, 0.0, "", "",
        False, False, False, False, 0, True, Box(1, 2, 3, 4), {"a": 1},
    )
    changed = {
        "type": "pointermove", "timestamp": 13.0, "target": EventTarget(),
        "client_x": 1.5, "client_y": 2.5, "page_x": 3.5, "page_y": 4.5,
        "button": 2, "buttons": 3, "delta_x": 1.0, "delta_y": 57.0,
        "key": "a", "code": "KeyA", "shift_key": True, "ctrl_key": True,
        "alt_key": True, "meta_key": True, "detail": 2, "is_trusted": False,
        "target_box": Box(1, 2, 3, 5), "extra": {"a": 2},
    }
    assert set(changed) == set(_FIELDS)
    reference = stream_digest([base])
    for name, value in changed.items():
        assert stream_digest([dataclasses.replace(base, **{name: value})]) != reference, name


def test_pointer_twins_read_scroll_separately():
    """A pointermove listener that scrolls moves the mousemove twin's
    page coordinates: each event reads the window when it is built."""
    window = Window(Document(1366, 4000))
    pipeline = InputPipeline(window)
    recorder = EventRecorder(("pointermove", "mousemove")).attach(window)
    window.add_event_listener("pointermove", lambda event: window.scroll_by(0, 40.0))
    pipeline.move_mouse_to(100.0, 200.0)
    pointer, mouse = recorder.events
    assert (pointer.page_y, mouse.page_y) == (200.0, 240.0)
    assert pointer.client_y == mouse.client_y == 200.0


def _twin_rig(document_width=1366):
    window = Window(Document(document_width, 4000))
    pipeline = InputPipeline(window)
    recorder = EventRecorder(("pointermove", "mousemove")).attach(window)
    return window, pipeline, recorder


def _on_next_pointermove(window, action):
    """Run ``action`` between the next pointer twin's two events."""

    def listener(event):
        window.remove_event_listener("pointermove", listener)
        action()

    window.add_event_listener("pointermove", listener)


def _coordinates(events):
    return [(e.type, e.client_x, e.client_y, e.page_x, e.page_y) for e in events]


def test_pointer_twins_read_a_pointer_moved_between_them():
    """A pointermove listener that moves the cursor again moves the
    mousemove twin: the twin rounds the new position."""
    window, pipeline, recorder = _twin_rig()
    window.scroll_by(0, 100.0)
    _on_next_pointermove(window, lambda: pipeline.move_mouse_to(300.4, 400.6))
    pipeline.move_mouse_to(100.0, 200.0)
    assert _coordinates(recorder.events) == [
        ("pointermove", 100.0, 200.0, 100.0, 300.0),
        ("mousemove", 300.0, 401.0, 300.0, 501.0),
    ]


def test_pointer_twins_read_a_reassigned_pointer():
    """A listener that assigns ``pipeline.pointer`` moves the twin too.

    The first assignment drops the last reference to the sample's point,
    so the second point may be allocated at its address: only a check
    that holds the point object itself tells the two apart."""
    window, pipeline, recorder = _twin_rig()

    def reassign():
        pipeline.pointer = Point(0.0, 0.0)
        pipeline.pointer = Point(500.6, 20.2)

    _on_next_pointermove(window, reassign)
    pipeline.move_mouse_to(100.0, 200.0)
    assert _coordinates(recorder.events) == [
        ("pointermove", 100.0, 200.0, 100.0, 200.0),
        ("mousemove", 501.0, 20.0, 501.0, 20.0),
    ]


@pytest.mark.parametrize("dx, dy", [(0.3, 0.0), (0.0, 0.3)])
def test_pointer_twins_read_a_fractional_smooth_scroll(dx, dy):
    """A fractional smooth scroll on either axis between the twins moves
    the mousemove's page coordinates across a rounding boundary."""
    window, pipeline, recorder = _twin_rig(document_width=3000)
    _on_next_pointermove(window, lambda: window.smooth_scroll_by(dx, dy))
    pipeline.move_mouse_to(100.4, 200.4)
    pointer, mouse = recorder.events
    assert _coordinates([pointer]) == [("pointermove", 100.0, 200.0, 100.0, 200.0)]
    assert _coordinates([mouse]) == [
        ("mousemove", 100.0, 200.0, 100.0 + (dx > 0), 200.0 + (dy > 0))
    ]
    assert mouse.timestamp > pointer.timestamp


@pytest.mark.parametrize("scroll_y", [0.0, 1.0])
@pytest.mark.parametrize("value", [2.5, 3.5, -0.4, -0.5, -1.5])
def test_event_coordinates_are_float_of_round(value, scroll_y):
    """Every event of a sample reports ``float(round(v))``: ties go to
    even, and a small negative gives ``0.0``, never ``-0.0`` (the digests
    compare ``repr``)."""
    window = Window(Document(1366, 4000))
    window.scroll_to(0.0, scroll_y)
    pipeline = InputPipeline(window)
    recorder = EventRecorder(ALL_INTERACTION_EVENTS).attach(window)
    pipeline.move_mouse_to(value, value)
    client = repr(float(round(value)))
    page_y = repr(float(round(value + scroll_y)))
    assert [e.type for e in recorder.events] == ["mouseover", "pointermove", "mousemove"]
    for event in recorder.events:
        fields = (event.client_x, event.client_y, event.page_x, event.page_y)
        assert [repr(v) for v in fields] == [client, client, client, page_y]
