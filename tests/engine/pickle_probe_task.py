"""A task whose result records every process that pickles it.

The remote executor tests map :func:`probe` on a node agent: each time
a :class:`Probe` is pickled, the pickling process appends its
``pid ppid`` line to the file the task names.
"""

import os


class Probe:
    """A result carrying the pid of the process that ran the task's
    parent (on a node, the agent that owns the pool worker)."""

    def __init__(self, path: str, agent_pid: int) -> None:
        self.path = path
        self.agent_pid = agent_pid

    def __reduce__(self):
        with open(self.path, "a") as handle:
            handle.write(f"{os.getpid()} {os.getppid()}\n")
        return Probe, (self.path, self.agent_pid)


def probe(path: str) -> Probe:
    return Probe(path, os.getppid())
