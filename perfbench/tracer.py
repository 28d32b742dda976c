"""In-memory span recorder for the benchmark's traced runs.

A span is ``[name, start, end, parent, op]``: ``time.perf_counter`` stamps
in seconds, the index of the enclosing span (-1 at top level) and the id of
the operation (drop, request or SNR point) that caused it. Spans stay in a
list and are written once, when the run ends, so writing costs nothing
inside the timed region.
"""

import time

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        span = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        span[START] = time.perf_counter()

    def end(self) -> list:
        """Close the innermost open span and return it."""
        stamp = time.perf_counter()
        span = self.spans[self._open.pop()]
        span[END] = stamp
        return span

    def starts(self) -> list[float]:
        return [span[START] for span in self.spans]

    def ends(self) -> list[float]:
        return [span[END] for span in self.spans]

    def totals(self, durations: list[float]) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total duration, total self time), given
        each span's duration.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap on a single thread.
        """
        child_time = [0.0] * len(self.spans)
        for span, duration in zip(self.spans, durations):
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += duration
        out: dict[str, tuple[int, float, float]] = {}
        for span, duration, covered in zip(self.spans, durations, child_time):
            count, total, self_total = out.get(span[NAME], (0, 0.0, 0.0))
            out[span[NAME]] = (count + 1, total + duration, self_total + duration - covered)
        return out

    def write_csv(self, path, durations: list[float]) -> None:
        """All spans, one per line: wall start and end relative to the first
        span, parent, op and the span's duration as given."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("name,start_s,end_s,parent,op,duration_s\n")
            for (name, start, end, parent, op), duration in zip(self.spans, durations):
                fh.write(f"{name},{start - origin!r},{end - origin!r},{parent},{op},"
                         f"{duration!r}\n")
