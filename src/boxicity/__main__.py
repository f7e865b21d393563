"""The process entry point: `python -m boxicity` and the `boxicity` console
script both call run().

run() runs one job through cli.main and ends the process with os._exit,
skipping the interpreter's teardown (freeing every module and a last
garbage collection): 4.5 ms of a 32 ms `exact` job on a 2-core VM.  Before
that it does what finalisation still owes the job: it runs the atexit
callbacks once and flushes stdout and stderr.  If a flush fails, it raises
SystemExit(code) instead, so the interpreter reports the fault as it always
has; argparse's SystemExit and uncaught exceptions take that path too.

The shortcut is taken only when the process is the job's own: the
interpreter was started as `python [flags] -m boxicity ARGS` or as the
console script, and no tracer, profiler, -i prompt or second thread waits
for control.  Under `python -m cProfile -m boxicity`, or run by
runpy.run_module, run() raises SystemExit(code) and its caller carries on.
"""

import atexit
import os
import sys

from .cli import main


def started_for_the_cli(line, argv) -> bool:
    """Whether line, the interpreter's command line (sys.orig_argv), ran the
    CLI on the job's arguments argv[1:]: the interpreter, its own flags
    (-X and -W with their values, or letters other than c and m), then
    `-m boxicity` or the console script argv[0], named boxicity, then
    argv[1:]."""
    cut = len(line) - len(argv) + 1  # where the job's arguments start
    if cut < 2 or line[cut:] != argv[1:]:
        return False
    if line[cut - 2:cut] == ["-m", "boxicity"]:
        flags = line[1:cut - 2]
    elif line[cut - 1] == argv[0] and os.path.basename(argv[0]) == "boxicity":
        flags = line[1:cut - 1]
    else:
        return False
    words = iter(flags)
    for word in words:
        if word in ("-X", "-W"):
            next(words, None)  # the option's value
        elif word[:2] in ("-X", "-W"):
            continue
        elif word[:1] != "-" or not word[1:].isalpha() or {"c", "m"} & set(word):
            return False
    return True


def _owns_the_process() -> bool:
    """Whether the interpreter was started for the job and nothing waits for
    control after it: a tracer, a profiler, an -i prompt (PYTHONINSPECT can
    also be set while the job runs) or another thread."""
    threading = sys.modules.get("threading")
    waiting = (sys.gettrace() or sys.getprofile() or sys.flags.inspect
               or os.environ.get("PYTHONINSPECT")
               or threading and threading.active_count() > 1)
    return not waiting and started_for_the_cli(sys.orig_argv, sys.argv)


def run():
    """Run the job sys.argv names and end the process with its exit code."""
    code = main()
    if _owns_the_process():
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:  # finalisation flushes again and reports it
            pass
        else:
            os._exit(code)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
