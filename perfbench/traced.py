"""Run the decaylab CLI in this process with spans around each module boundary.

Usage: python3 perfbench/traced.py TRACE_DIR CLI_ARG...

The wrappers are installed from here, around the public functions of
`decaylab.cli`, `decaylab.evolve` and `decaylab.metrics`; nothing in the
package changes.  Spans are kept in memory as (name, start, end, parent) and
written to TRACE_DIR when a unit of work ends: once for this process, and once
per sweep cell in each forked pool worker, which inherits the wrappers.  The
first and middle states recorded by each `run` are saved beside the spans so
the kernel micro-timings can use the workload's own states.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.states = []
        self.flushes = 0

    def wrap(self, name, fn, capture=False):
        """`fn` inside a span; with capture, keep the array it is called on
        whenever the caller is a `run` span (the recorded samples)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            if capture and parent is not None and self.spans[parent][0] == "evolve.run":
                if not self.states or self.states[-1] is not args[0]:
                    self.states.append(args[0])
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def reset(self):
        """Forget what a forked worker inherited from its parent."""
        self.spans, self.stack, self.states = [], [], []

    def save_states(self, out_dir):
        import numpy as np

        if self.states:
            np.savez(
                self.out_dir / f"states-{os.getpid()}-{Path(out_dir).name}.npz",
                out_dir=np.array(str(out_dir)),
                initial=self.states[0],
                mid=self.states[len(self.states) // 2],
            )
        self.states = []

    def flush(self, **extra):
        path = self.out_dir / f"spans-{os.getpid()}-{self.flushes}.json"
        self.flushes += 1
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans, **extra}, handle)
        self.spans = []


def install(tracer: Tracer, cli) -> None:
    from decaylab import evolve
    from decaylab.metrics import NormSeries

    for module, attr, name, capture in (
        (cli, "cmd_simulate", "cli.command", False),
        (cli, "cmd_sweep", "cli.command", False),
        (cli, "run", "evolve.run", False),
        (cli, "write_field_csv", "cli.write_field_csv", False),
        (cli, "run_verification", "metrics.verify", False),
        (evolve, "step_imex", "evolve.step_imex", False),
        (evolve, "spsolve", "evolve.spsolve", False),
        (evolve, "lr_norm", "metrics.lr_norm", True),
        (evolve, "truncate_excess", "metrics.truncate_excess", True),
    ):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), capture))
    NormSeries.write_csv = tracer.wrap("metrics.series_write", NormSeries.write_csv)
    NormSeries.from_csv = classmethod(
        tracer.wrap("metrics.series_read", NormSeries.from_csv.__func__)
    )

    simulate = tracer.wrap("cli.simulate_to_dir", cli.simulate_to_dir)

    @functools.wraps(cli.simulate_to_dir)
    def simulate_to_dir(cfg, out_dir, *args, **kwargs):
        try:
            return simulate(cfg, out_dir, *args, **kwargs)
        finally:
            tracer.save_states(out_dir)

    cli.simulate_to_dir = simulate_to_dir
    worker = cli._sweep_worker

    # pickled by reference as decaylab.cli._sweep_worker, which a forked
    # worker resolves to this wrapper
    @functools.wraps(worker)
    def sweep_worker(task):
        tracer.reset()
        try:
            return worker(task)
        finally:
            tracer.flush()

    cli._sweep_worker = sweep_worker


def main() -> int:
    trace_dir = Path(sys.argv[1])
    t0 = time.perf_counter()
    import decaylab.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer(trace_dir)
    install(tracer, cli)
    code = tracer.wrap("cli.main", cli.main)(sys.argv[2:])
    tracer.flush(import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
