"""A tally that forked column blocks add to as well.

solve_batch steps every column block but the first in a child process, so
a test that counts calls inside the integrator (a patched _Run method, say)
must collect the children's counts too.  Each value is one line appended
to a file, which every process forked during the count writes to.
"""


class Tally:
    """Integers appended by this process and by any process forked from it."""

    def __init__(self, path):
        self.path = path
        path.write_bytes(b"")

    def append(self, value: int) -> None:
        with open(self.path, "ab") as out:  # append mode: each short line lands whole
            out.write(b"%d\n" % value)

    def values(self) -> list:
        return [int(line) for line in self.path.read_bytes().split()]
