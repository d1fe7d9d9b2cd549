"""Session-wide check: the test run leaves no process behind.

The process executor spawns workers, the kill -9 drills spawn whole
databases and kill them; whatever any of them leaves running outlives the
test run (PR 12 found idle ``multiprocessing.spawn`` workers after every
tier-1 run).  The session tags its environment, every descendant inherits
the tag however it was re-parented, and the session fails if a tagged
process is still alive when it finishes.
"""

from __future__ import annotations

import gc
import os
import time
from typing import List, Tuple

_TAG = "REPRO_TEST_SESSION"
#: How long a process that is already shutting down may take to end.
_GRACE_SECONDS = 5.0


def _tagged_processes(tag: bytes) -> List[Tuple[int, str]]:
    """``(pid, command line)`` of the live processes carrying *tag*."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if tag not in handle.read().split(b"\0"):
                    continue
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue  # ended meanwhile, or not ours to read
        state, parent = fields[0], int(fields[1])
        if state == "Z":
            continue
        if parent == me and "multiprocessing.resource_tracker" in command:
            # This process's own tracker: started with its first spawn
            # context, ends when this process does.
            continue
        found.append((int(entry), command.strip()))
    return found


def pytest_sessionstart(session) -> None:
    os.environ[_TAG] = str(os.getpid())


def pytest_sessionfinish(session, exitstatus) -> None:
    if not os.path.isdir("/proc"):
        return
    tag = f"{_TAG}={os.getpid()}".encode()
    # A database dropped without close() ends its workers when collected.
    gc.collect()
    deadline = time.monotonic() + _GRACE_SECONDS
    alive = _tagged_processes(tag)
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = _tagged_processes(tag)
    if alive:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        lines = [f"{len(alive)} process(es) started by the test run are still alive:"]
        lines += [f"  pid {pid}: {command[:160]}" for pid, command in alive]
        if reporter is not None:
            reporter.write_line("")
            for line in lines:
                reporter.write_line(line, red=True)
        session.exitstatus = 1
