"""A shared helper for thread-safety tests."""
from __future__ import annotations

import sys
import threading


def race(context, run, rounds):
    """Each round, run ``run`` on four threads sharing one new ``context()``;
    return every round's four results."""
    rounds_results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads finely
    try:
        for _ in range(rounds):  # a race shows in some rounds, not in every one
            shared = context()
            start = threading.Barrier(4, timeout=60)
            results = [None] * 4

            def worker(k):
                start.wait()
                results[k] = run(shared)

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            rounds_results.append(results)
    finally:
        sys.setswitchinterval(interval)
    return rounds_results
