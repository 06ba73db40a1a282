"""Function-entry recorder for ``scripts/reach.py``.

``reach.py`` puts this directory first on ``PYTHONPATH``, so every
Python process it starts — and every process those start: ``repro
serve`` children, bench stream children — imports this module at
start-up.  When ``REPRO_REACH_DIR`` names a directory, a
``sys.setprofile`` hook (on every thread) appends
``<path under src/>:<first line>`` to ``<dir>/<pid>.reach`` the first
time each function under ``src/`` is entered.  Each line is written as
it is seen, with no buffer, so a SIGKILLed process still leaves its
record behind.  Without the variable this module does nothing.
"""

import os

_OUT = os.environ.get("REPRO_REACH_DIR")
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(__file__)))),
    "src",
    "",
)


def _install(out_dir: str) -> None:
    import sys
    import threading

    fd = os.open(
        os.path.join(out_dir, f"{os.getpid()}.reach"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        0o644,
    )
    seen = set()
    skip = len(_SRC)

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                name = code.co_filename
                if name.startswith(_SRC):
                    os.write(fd, f"{name[skip:]}:{code.co_firstlineno}\n".encode())

    threading.setprofile(hook)
    sys.setprofile(hook)


if _OUT:
    _install(_OUT)
