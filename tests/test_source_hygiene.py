"""Source checks that keep documentation and options honest.

* docs/TELEMETRY.md is the one table of telemetry events: every event
  name ``src/`` emits is a row there, every row is emitted, and each
  row lists the fields its emit calls pass.
* Every field of :class:`~repro.serve.ServeConfig` and
  :class:`~repro.core.trainer.TrainConfig` is read somewhere in
  ``src/``: an option nothing reads silently does nothing.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.trainer import TrainConfig
from repro.serve import ServeConfig

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"

#: Functions that pass their second positional argument on to
#: ``telemetry.emit`` as the event name, with the fields they add to
#: the keywords of the call.
EMITTERS = {"emit": (), "_note": ("boundary", "kind")}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text())


def _literals(node):
    """String constants an event-name expression can evaluate to."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _literals(node.body) | _literals(node.orelse)
    return set()


def _emit_calls():
    """``(event, fields, open_ended)`` per emit call with a literal
    event name; ``open_ended`` when the call also splats ``**fields``."""
    for _, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) \
                else getattr(func, "attr", None)
            if name not in EMITTERS or len(node.args) < 2:
                continue
            fields = set(EMITTERS[name])
            fields |= {k.arg for k in node.keywords if k.arg is not None}
            open_ended = any(k.arg is None for k in node.keywords)
            for event in _literals(node.args[1]):
                yield event, fields, open_ended


def _emitted_events():
    """Literal event names passed to an emitter, plus string defaults of
    ``event`` parameters (``autodiff.profile(event="profile")``)."""
    events = {event for event, _, _ in _emit_calls()}
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args.args
                defaults = node.args.defaults
                for arg, default in zip(args[len(args) - len(defaults):],
                                        defaults):
                    if arg.arg == "event":
                        events |= _literals(default)
    return events


def _table():
    """``{event: documented field names}`` from docs/TELEMETRY.md."""
    text = (ROOT / "docs" / "TELEMETRY.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \|", text, flags=re.MULTILINE)
    table = {}
    for event, cell in rows:
        assert event not in table, f"duplicate row {event}"
        table[event] = {word for quoted in re.findall(r"`([^`]*)`", cell)
                        for word in re.findall(r"\w+", quoted)}
    return table


class TestTelemetryTable:
    def test_every_emitted_event_is_a_row_and_every_row_is_emitted(self):
        rows = set(_table())
        emitted = _emitted_events()
        assert emitted, "found no emit call in src/"
        assert sorted(emitted - rows) == [], \
            "events emitted but missing from docs/TELEMETRY.md"
        assert sorted(rows - emitted) == [], \
            "docs/TELEMETRY.md rows that src/ never emits"

    def test_rows_list_the_fields_src_passes(self):
        """A field passed but not documented, or documented but passed
        by no call (e.g. a removed field left in the table), fails."""
        table = _table()
        passed, open_ended = {}, set()
        for event, fields, splat in _emit_calls():
            passed.setdefault(event, set()).update(fields)
            if splat:
                open_ended.add(event)
        for event, fields in passed.items():
            missing = sorted(fields - table[event])
            assert missing == [], f"{event}: undocumented {missing}"
            if event not in open_ended:
                stale = sorted(table[event] - fields)
                assert stale == [], f"{event}: never passed {stale}"


def _is_config(node) -> bool:
    """``config.x``, ``cfg.x`` or ``<anything>.config.x``: how ``src/``
    holds both configs.  ``self.x`` and ``args.x`` do not count, so an
    unrelated attribute of the same name cannot hide a dead field."""
    if isinstance(node, ast.Name):
        return node.id in ("config", "cfg")
    return isinstance(node, ast.Attribute) and node.attr == "config"


def _config_reads():
    reads = set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load) \
                    and _is_config(node.value):
                reads.add(node.attr)
    return reads


@pytest.mark.parametrize("config", [ServeConfig, TrainConfig],
                         ids=lambda c: c.__name__)
def test_every_config_field_is_read(config):
    reads = _config_reads()
    unread = [f.name for f in dataclasses.fields(config)
              if f.name not in reads]
    assert unread == [], f"{config.__name__} fields nothing reads"
