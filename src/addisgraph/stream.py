"""Line protocol for live online testing sessions.

Requests (one per line):

* ``H <id> tau=<t> lambda=<l> conflicts=<j,...>`` — register hypothesis
  ``<id>`` (strictly increasing integers); ``tau``/``lambda``/``conflicts``
  are optional and default to the engine configuration / no conflicts.
  Response: ``LEVEL <id> <alpha>``.
* ``P <id> <p>`` — report the p-value of a registered hypothesis.
  Response: ``DECISION <id> reject|accept S=<0|1> C=<0|1>``.
* ``SAVE <path>`` — write a resumable snapshot, atomically: the file at
  ``<path>`` is either the previous snapshot or the new one, never a part.
  Response: ``SAVED <path>``, or ``ERR save-failed`` when it cannot be
  written.

Malformed or ill-timed requests produce ``ERR <code> <detail>`` and leave
the session state untouched.
"""

from __future__ import annotations

import os
import re

from .engines import FwerEngine
from .errors import AddisGraphError, DuplicateObservation, ProtocolError, UnknownIndex


class StreamSession:
    """Wraps an engine behind the text protocol; one line in, one line out."""

    def __init__(self, engine: FwerEngine, full_precision: bool = False):
        self.engine = engine
        self.full_precision = full_precision

    def _fmt(self, x: float) -> str:
        return repr(x) if self.full_precision else f"{x:.6g}"

    def handle(self, line: str) -> str:
        try:
            return self._dispatch(line.strip())
        except ProtocolError as exc:
            return f"ERR {exc.code} {exc.detail}"
        except UnknownIndex as exc:
            return f"ERR unknown-index {exc}"
        except DuplicateObservation as exc:
            return f"ERR duplicate-observation {exc}"
        except AddisGraphError as exc:
            code = re.sub(r"(?<=[a-z])(?=[A-Z])", "-", type(exc).__name__).lower()
            return f"ERR {code} {exc}"

    def _dispatch(self, line: str) -> str:
        if not line:
            raise ProtocolError("bad-command", "empty line")
        parts = line.split()
        cmd = parts[0].upper()
        if cmd == "H":
            return self._register(parts[1:])
        if cmd == "P":
            return self._report(parts[1:])
        if cmd == "SAVE":
            if len(parts) != 2:
                raise ProtocolError("bad-command", "usage: SAVE <path>")
            self._save(parts[1])
            return f"SAVED {parts[1]}"
        raise ProtocolError("bad-command", f"unknown command {parts[0]!r}")

    def _save(self, path: str) -> None:
        """Write the snapshot beside ``path``, then rename it over ``path``,
        so that a write that fails leaves the previous snapshot whole."""
        text = self.engine.snapshot_json()
        tmp = f"{os.path.abspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise ProtocolError("save-failed", f"cannot write {path}: {exc}") from None

    @staticmethod
    def _index(token: str) -> int:
        try:
            i = int(token)
        except ValueError:
            raise ProtocolError("bad-index", f"index must be an integer, got {token!r}") from None
        if i < 1:
            raise ProtocolError("bad-index", f"index must be positive, got {i}")
        return i

    @classmethod
    def _indices(cls, val: str) -> list[int]:
        """The comma-separated indices of ``val``, empty tokens skipped: one
        ``int`` pass, and the per-token :meth:`_index` only to report a bad one."""
        try:
            indices = list(map(int, val.split(",")))
            if indices and min(indices) >= 1:
                return indices
        except ValueError:
            pass
        return [cls._index(v) for v in val.split(",") if v]

    def _register(self, args: list[str]) -> str:
        if not args:
            raise ProtocolError("bad-command", "usage: H <id> [tau=] [lambda=] [conflicts=]")
        i = self._index(args[0])
        tau = lam = None
        conflicts = None
        for kv in args[1:]:
            key, sep, val = kv.partition("=")
            if not sep:
                raise ProtocolError("bad-command", f"expected key=value, got {kv!r}")
            key = key.lower()
            try:
                if key == "tau":
                    tau = float(val)
                elif key == "lambda":
                    lam = float(val)
                elif key == "conflicts":
                    conflicts = self._indices(val)
                else:
                    raise ProtocolError("bad-command", f"unknown field {key!r}")
            except ValueError:
                raise ProtocolError("bad-value", f"cannot parse {kv!r}") from None
        if i != self.engine.issued + 1:
            raise ProtocolError(
                "out-of-order", f"expected registration {self.engine.issued + 1}, got {i}"
            )
        alpha = self.engine.level(i, tau=tau, lam=lam, conflicts=conflicts)
        return f"LEVEL {i} {self._fmt(alpha)}"

    def _report(self, args: list[str]) -> str:
        if len(args) != 2:
            raise ProtocolError("bad-command", "usage: P <id> <p>")
        i = self._index(args[0])
        try:
            p = float(args[1])
        except ValueError:
            raise ProtocolError("bad-value", f"cannot parse p-value {args[1]!r}") from None
        if not 0.0 <= p <= 1.0:
            raise ProtocolError("bad-value", f"p-value {p} outside [0, 1]")
        ind, reject = self.engine.observe(i, p)
        word = "reject" if reject else "accept"
        return f"DECISION {i} {word} S={ind.s} C={ind.c}"

    @classmethod
    def from_snapshot(cls, path, full_precision: bool = False) -> "StreamSession":
        with open(path) as fh:
            engine = FwerEngine.restore(fh.read())
        return cls(engine, full_precision=full_precision)


def run_session(engine_or_session, lines, out) -> None:
    """Drive a session over an iterable of request lines, writing responses."""
    session = (
        engine_or_session
        if isinstance(engine_or_session, StreamSession)
        else StreamSession(engine_or_session)
    )
    for line in lines:
        if line.strip().upper() in ("QUIT", "EXIT"):
            break
        if not line.strip():
            continue
        out.write(session.handle(line) + "\n")
        out.flush()
