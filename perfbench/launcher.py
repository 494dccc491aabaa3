"""Small process that starts and times the benchmark's children.

A child's peak RSS as ``wait4`` reports it is at least the resident size
of the process that spawned it, because the kernel carries the spawner's
high-water mark across ``exec``.  Spawning from the benchmark itself
would hide any CLI peak below the benchmark's own size, so children are
spawned from this process, which runs with ``-I -S`` and imports only
``json`` (about 9 MB resident, below the CLI's own start-up size).

Protocol: one JSON request per stdin line, ``[argv, stdout_path,
stderr_path]``; one JSON reply per stdout line, ``[wall_s, peak_rss_kb,
exit_code]``.  The children inherit this process's cwd and environment.
It exits at end of input.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv, out, err = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        sys.stdout.write(json.dumps([wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
