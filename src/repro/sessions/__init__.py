"""Event-stream session scoring.

Turns the one-shot verdict path into a stateful, revisable one: each
interaction-triggered fingerprint collection is scored as it arrives,
reconciled against the session's prior verdict, and escalations are
emitted as :class:`VerdictRevision` records.  The first event of every
session traverses the exact single-vector wire path, so its verdict is
bit-identical to what the stateless services produce today.
"""

from repro.sessions.revision import RevisionReason, VerdictRevision, classify_revision
from repro.sessions.service import SessionObservation, SessionScoringService
from repro.sessions.tracker import SessionState, SessionTracker

__all__ = [
    "RevisionReason",
    "SessionObservation",
    "SessionScoringService",
    "SessionState",
    "SessionTracker",
    "VerdictRevision",
    "classify_revision",
]
