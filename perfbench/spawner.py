"""Small helper process that starts and times the benchmark's children.

On Linux a child's ``ru_maxrss`` starts from the resident size of the
process that spawned it, because the high-water mark survives ``exec``.
The benchmark itself holds the corpus and its expectations in memory, so
children are started from this process instead, which stays small (less
than any Python child's own peak).

The helper also measures how fast the CPU is running right around each
child. Shared hosts switch a vCPU between speeds that differ by up to
2x, in phases from a tenth of a second to minutes long, and this moves
a child's wall time far more than any change to the program would. So a
fixed pure-Python calibration (``calibrate``), independent of the
program, is timed just before and just after each child, and the
benchmark scales the child's time by it. The helper and its children are
pinned to one CPU, so that the calibration measures the CPU the child
ran on.

Protocol: one JSON request per line on stdin,
``{"argv", "cwd", "stdout", "stderr", "timeout"}``, answered by one JSON
line on stdout,
``{"wall_s", "user_s", "sys_s", "maxrss_kb", "returncode", "cal_s"}``.
The helper exits when stdin closes.
"""

import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction

_WORDS = " ".join(f"w{i % 211}.{i % 7}" for i in range(6000))
_SOURCE = "\n".join(" ".join(f"{'TFE.'[i * j % 4]}{(i + j) % 7} a{j % 5}" for j in range(40))
                     for i in range(30))
_TOKEN = re.compile(r"\S+")


class _Token:
    __slots__ = ("text", "col", "value")

    def __init__(self, text: str, col: int, value: Fraction) -> None:
        self.text, self.col, self.value = text, col, value


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _int_loop() -> None:
    x = 0
    for i in range(70000):
        x += i * i


def _text_loop() -> None:
    counts: dict[str, int] = {}
    for word in _WORDS.split():
        head, _, tail = word.partition(".")
        counts[head] = counts.get(head, 0) + int(tail)
    pairs = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    "".join(f"<{k} n='{v}'/>" for k, v in pairs * 8)


def _object_loop() -> None:
    tokens = [_Token(m.group(), m.start(), Fraction(1, 1 << len(m.group()) % 5))
              for line in _SOURCE.splitlines() for m in _TOKEN.finditer(line)]
    total = Fraction(0)
    for token in tokens[::6]:
        total += token.value
    columns: dict[str, list[int]] = {}
    for token in tokens:
        columns.setdefault(token.text[0], []).append(token.col)
    "".join(f'<c n="{t.col}" v="{t.text}"/>' for t in tokens)


def calibrate() -> float:
    """Geometric mean of the seconds taken by three fixed loops.

    Contention on a shared host slows integer, string and object work by
    different factors, and no single loop followed the CLI's time in every
    phase. Over recorded 30 s windows of CLI runs, times scaled by the
    geometric mean of the three were steadier than times scaled by any one
    of them.
    """
    logs = []
    for loop in (_int_loop, _text_loop, _object_loop):
        t0 = time.perf_counter()
        loop()
        logs.append(math.log(time.perf_counter() - t0))
    return math.exp(sum(logs) / len(logs))


def run_child(argv: list[str], cwd: str, stdout: str, stderr: str, timeout: int) -> dict:
    """Run one child to completion; kill it after ``timeout`` seconds."""
    before = calibrate()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=cwd)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    after = calibrate()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "returncode": proc.returncode,
        "cal_s": math.sqrt(before * after),
    }


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not on Linux: run unpinned
        pass
    for _ in range(20):  # warm the loops up
        calibrate()
    for line in sys.stdin:
        print(json.dumps(run_child(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
