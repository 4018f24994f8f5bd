import os
import sys

from .cli import main


def run() -> None:
    """Run the command line, then end the process without finalizing the interpreter.

    :func:`main` has written the report and its ``elapsed:`` line, so once
    both streams are flushed nothing is left to do: ``os._exit`` skips the
    interpreter's teardown (module and object finalization, and ``atexit``
    hooks), which costs every op a few milliseconds. An exception that
    ``main`` does not catch, such as ``KeyboardInterrupt``, exits the
    normal way.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started with it closed
            try:
                stream.flush()
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
