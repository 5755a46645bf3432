"""Execution probe hook: record every ``src/repro`` function a process
enters.

Put this directory first on ``PYTHONPATH`` and name an output file in
``REPRO_PROBE_OUT``; every Python process started with that environment
(the command itself, its pool workers, the fleet's worker
subprocesses) then appends one ``<path>:<first line>`` line to the file
the first time it enters each function defined under the package
directory.  Lines are written unbuffered with ``O_APPEND``, so a worker
that exits through ``os._exit`` or is SIGKILLed keeps what it recorded,
and concurrent writers never interleave within a line.  A forked child
inherits the hook and its parent's record of what was already written.
A Python signal handler is recorded when the signal arrives, wherever
the process is.

Without ``REPRO_PROBE_OUT`` this module does nothing.  See
``execution_probe.py`` beside it for the roots and the report.
"""

import os
import signal
import sys
import threading


def _install(out: str) -> None:
    fd = os.open(out, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    # Keyed on what is written, not on the code object: code objects
    # compare equal across files (the filename is not compared), so two
    # identical one-line methods on the same line of two modules would
    # otherwise be recorded once.
    seen = set()
    marker = os.sep + "repro" + os.sep

    def record(key) -> None:
        seen.add(key)
        if marker in key[0]:
            os.write(fd, f"{key[0]}:{key[1]}\n".encode())

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            key = (code.co_filename, code.co_firstlineno)
            if key not in seen:
                record(key)

    # A signal handler that runs while ``profile`` itself runs gets no
    # profile event, so a handler is recorded when it is called.
    install_handler = signal.signal

    def recorded(signum, handler):
        code = getattr(getattr(handler, "__func__", handler), "__code__",
                       None)
        if code is None:
            return install_handler(signum, handler)

        key = (code.co_filename, code.co_firstlineno)

        def call(number, frame):
            if key not in seen:
                record(key)
            return handler(number, frame)

        return install_handler(signum, call)

    signal.signal = recorded
    sys.setprofile(profile)
    threading.setprofile(profile)


if os.environ.get("REPRO_PROBE_OUT"):
    _install(os.environ["REPRO_PROBE_OUT"])
