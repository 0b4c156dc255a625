"""One timed `mebench` invocation in a fresh interpreter.

    python3 child.py <src-dir> <spawn-stamp-ns> [-- <mebench argv>...]

<spawn-stamp-ns> is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so setup time covers interpreter start-up plus the
import of `mebench.cli`. Without a mebench argv the child only measures
setup. The last stdout line is a JSON object with setup_s and setup_speed
and, with an argv, main_s (wall time of `cli.main`), main_speed, rc and
peak_rss_mib (this process's own rusage). The speeds come from probe.py.
"""

import sys
import time

from probe import HostSpeed

host = HostSpeed()
host.start()
started = time.perf_counter()

sys.path.insert(0, sys.argv[1])
import mebench.cli  # noqa: E402  (the import is what setup_s measures)

setup_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(sys.argv[2])
imported = host.sampled_now()

import json  # noqa: E402
import resource  # noqa: E402

result = {"setup_s": setup_ns / 1e9, "setup_speed": host.speed(started, imported)}
if "--" in sys.argv:
    argv = sys.argv[sys.argv.index("--") + 1 :]
    t0 = time.perf_counter()
    rc = mebench.cli.main(argv)
    t1 = time.perf_counter()
    result.update(
        main_s=t1 - t0,
        main_speed=host.speed(t0, host.sampled_now()),
        rc=rc,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
host.stop()
print(json.dumps(result))
