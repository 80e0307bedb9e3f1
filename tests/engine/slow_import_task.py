"""A task module whose import takes three seconds.

The remote executor tests map :func:`square` from here on a fresh node
agent: whichever process unpickles the task first imports this module
and sleeps.
"""

import time

IMPORT_SECONDS = 3.0

time.sleep(IMPORT_SECONDS)


def square(x):
    return x * x
