"""Run one frontlab command in this fresh process and report what it cost.

    python3 child.py [TRACE_FILE COMMAND --config FILE --out DIR]

frontlab must be importable (run.py puts the checkout's src/ on PYTHONPATH).
TRACE_FILE is "-" for an untraced call.  Prints {"ready": t} as soon as
frontlab.cli is imported, with t on the system-wide monotonic clock so the
parent can time interpreter start plus import; without arguments it stops
there.  Otherwise it prints {"code", "wall_s", "maxrss_kb"} once
frontlab.cli.main returns.
"""

import sys
import time


def main(cli) -> None:
    import json

    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = None
    if trace_file != "-":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(trace_file)
    print(json.dumps({"code": code, "wall_s": wall, "maxrss_kb": peak_rss_kb()}))


def peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    VmHWM is read first: after fork and exec, getrusage's ru_maxrss also
    counts the parent's resident set at the fork.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    import frontlab.cli

    print('{"ready": %r}' % time.monotonic(), flush=True)
    if len(sys.argv) > 1:
        main(frontlab.cli)
