"""Runs commands one at a time and reports each one's exit code and peak RSS.

A child's max-RSS, as the kernel reports it, is at least the resident
size of the process that spawned it.  The benchmark process is larger
than some CLI commands, so `run.py` spawns them through this launcher,
which imports nothing beyond `os` and `sys` and stays smaller than any
of them.

Protocol, one line each way per command:

    stdin:  <stdout file> TAB <stderr file> TAB <argv[0]> TAB <argv[1]> ...
    stdout: <exit code> <max-RSS in KiB>

The child's stdin is /dev/null.  The launcher exits when its stdin
closes.
"""

import os
import sys


def main():
    for line in sys.stdin:
        out, err, *argv = line.rstrip("\n").split("\t")
        create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out, create, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err, create, 0o644)]
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, flush=True)


if __name__ == "__main__":
    main()
