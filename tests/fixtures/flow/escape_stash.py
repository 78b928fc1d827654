"""Planted message-stash discipline violations.

``Note._digest`` is a properly declared ``init=False`` stash slot, but the
three ``Handler`` methods break the write discipline in the three ways the
``stash-discipline`` analysis distinguishes:

* ``deliver`` performs the stash-if-absent read *and* gates the write on
  ``self.primary`` — replica-local state.  Replicas disagreeing on primacy
  would stash or skip divergently on the shared frozen message.
* ``deliver_unguarded`` writes without ever reading the slot, so a second
  delivery overwrites what another replica already observed.
* ``deliver_undeclared`` targets ``_scratch``, which no class declares as a
  stash slot.

``make`` is the clean counterpart: it stamps a ``Note`` it has just built,
before anything else uses it, which is still construction and must not be
reported.  ``make_and_publish`` builds the note too but stamps it only after
handing it to ``self.outbox``, where another process may already have read
the slot.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Note:
    payload: str
    _digest: object = field(init=False, compare=False, repr=False, default=None)


class Handler:
    def __init__(self, primary):
        self.primary = primary
        self.outbox = []

    def deliver(self, note):
        digest = note._digest
        if digest is None:
            if self.primary:
                object.__setattr__(note, "_digest", len(note.payload))  # PLANT: stash-discipline
        return digest

    def deliver_unguarded(self, note):
        object.__setattr__(note, "_digest", len(note.payload))  # PLANT: stash-discipline
        return note._digest

    def deliver_undeclared(self, note):
        object.__setattr__(note, "_scratch", len(note.payload))  # PLANT: stash-discipline
        return note._scratch

    def make(self, payload):
        note = Note(payload)
        object.__setattr__(note, "_digest", len(payload))
        return note

    def make_and_publish(self, payload):
        note = Note(payload)
        self.outbox.append(note)
        object.__setattr__(note, "_digest", len(payload))  # PLANT: stash-discipline
        return note
