"""Outside-in tracing of ringforge's layers.

The tracer replaces functions on ringforge's modules and classes with
wrappers, under the name each caller looks them up by, so the package
itself is not edited.  Two kinds of wrapper share one frame stack:

* a span records name, start, end, parent and the time its children took;
* an aggregate, for functions called hundreds of thousands of times (the
  scalar ``linalg.rref``, the ``GF`` gathers), only adds to counters.

Both subtract their own duration from the enclosing frame's self time,
so self time is duration minus the time covered by children of either
kind.  Spans stay in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import json
import time

_clock = time.perf_counter


def _rows(out):
    return len(out)


def _vectors(out):
    # number of vectors produced: every axis but the last
    return out.size // out.shape[-1] if out.ndim else 1


def _rref_batch_items(out):
    return len(out[0])


def _size(out):
    return getattr(out, "size", 1)


# (module attribute or class, attribute, recorded name, kind, item counter)
# A module attribute is replaced where the callers look it up:
# classify.py binds subspace_rows by name, so the classify module's
# binding is the one that is wrapped; linalg's own functions (rank, solve,
# rref_batch) reach rref through the module globals, which setattr on the
# module replaces.
def _targets(rf):
    cl, gl, la, rg = rf.classify, rf.gl, rf.linalg, rf.rings
    return [
        (rf.gf.GF, "__init__", "gf.build", "span", None),
        (rf.gf.GF, "_mul_raw", "gf.mul_raw", "agg", _size),
        (rf.gf.GF, "_add_raw", "gf.add_raw", "agg", _size),
        (rf.gf.GF, "_frob_raw", "gf.frob_raw", "agg", _size),
        (la, "rref", "linalg.rref", "agg", None),
        (la, "solve", "linalg.solve", "agg", None),
        (la, "encode_rows", "linalg.encode_rows", "agg", None),
        (la, "rref_batch", "linalg.rref_batch", "span", _rref_batch_items),
        (la, "linmap_apply", "linalg.linmap_apply", "span", _vectors),
        (la, "kron_batch", "linalg.kron_batch", "span", _rows),
        (gl, "enumerate_gl", "gl.enumerate_gl", "span", _rows),
        (gl, "det_batch", "gl.det_batch", "span", None),
        (cl, "subspace_rows", "matspace.subspace_rows", "span", _rows),
        (cl, "_sweep_subspaces", "classify.sweep", "span", None),
        (cl, "_bfs_subspaces", "classify.bfs", "span", None),
        (cl, "classify_subspaces", "classify.classify_subspaces", "span", None),
        (cl, "classify_congruence", "classify.congruence", "span", None),
        (rg, "iso_test", "rings.iso_test", "span", None),
        (rg, "verify_witness", "rings.verify_witness", "span", None),
        (rg, "ring_structure", "rings.ring_structure", "span", None),
        (rg, "check_axioms", "rings.check_axioms", "span", None),
        (rg.Ring, "mul_table", "rings.mul_table", "span", None),
        (rg.Ring, "mul_batch", "rings.mul_batch", "span", _vectors),
        (rg.Ring, "mul", "rings.mul", "agg", None),
    ]


class Tracer:
    """Frame stack, span records and per-name aggregate counters."""

    def __init__(self):
        self.active = False
        self.spans = []          # [id, parent, name, start, end, child_s, items]
        self.agg = {}            # name -> [calls, total_s, self_s, items]
        self.agg_by_caller = {}  # "name < enclosing span name" -> self_s
        self.max_nbytes = 0
        self.wrapped_calls = {"span": 0, "agg": 0}
        self._stack = [[None, 0.0]]   # [span id or None, child time]
        self._saved = []

    # -- installing wrappers --

    def install(self, rf):
        for owner, attr, name, kind, counter in _targets(rf):
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            wrap = self._span_wrapper if kind == "span" else self._agg_wrapper
            setattr(owner, attr, wrap(fn, name, counter))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _note(self, out):
        parts = out if isinstance(out, tuple) else (out,)
        for part in parts:
            nb = getattr(part, "nbytes", 0)
            if nb > self.max_nbytes:
                self.max_nbytes = nb

    def _span_wrapper(self, fn, name, counter):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            rec = [sid, stack[-1][0], name, 0.0, 0.0, 0.0, 0]
            tracer.spans.append(rec)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                stack[-1][1] += t1 - t0
                rec[3], rec[4], rec[5] = t0, t1, frame[1]
                tracer.wrapped_calls["span"] += 1
            tracer._note(out)
            if counter is not None:
                rec[6] = counter(out)
            return out

        return wrapper

    def _agg_wrapper(self, fn, name, counter):
        tracer = self
        stack = self._stack
        slot = self.agg.setdefault(name, [0, 0.0, 0.0, 0])

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            # spans opened inside an aggregate belong to the enclosing span
            frame = [stack[-1][0], 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                stack[-1][1] += dt
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - frame[1]
                caller = "top" if frame[0] is None else tracer.spans[frame[0]][2]
                key = f"{name} < {caller}"
                by_caller = tracer.agg_by_caller
                by_caller[key] = by_caller.get(key, 0.0) + dt - frame[1]
                tracer.wrapped_calls["agg"] += 1
            tracer._note(out)
            if counter is not None:
                slot[3] += counter(out)
            return out

        return wrapper

    # -- reading out one task --

    def mark(self):
        """A position to take a task's delta from; resets the largest array."""
        self.max_nbytes = 0
        return (len(self.spans),
                {k: list(v) for k, v in self.agg.items()},
                dict(self.wrapped_calls), dict(self.agg_by_caller))

    def delta(self, mark):
        """Totals since mark.

        Returns per-name totals {name: {calls, total_s, self_s, items}}, the
        wrapped call counts, and self time by function and caller: each
        span name, and each aggregate as "name < enclosing span name".
        Those self times partition the traced time.
        """
        first, agg0, calls0, by_caller0 = mark
        out = {}
        for _sid, _parent, name, t0, t1, child, items in self.spans[first:]:
            d = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "items": 0})
            d["calls"] += 1
            d["total_s"] += t1 - t0
            d["self_s"] += t1 - t0 - child
            d["items"] += items
        for name, (calls, tot, self_s, items) in self.agg.items():
            c0, t0, s0, i0 = agg0.get(name, (0, 0.0, 0.0, 0))
            if calls > c0:
                out[name] = {"calls": calls - c0, "total_s": tot - t0,
                             "self_s": self_s - s0, "items": items - i0}
        wrapped = {k: v - calls0[k] for k, v in self.wrapped_calls.items()}
        selfs = {name: d["self_s"] for name, d in out.items() if name not in self.agg}
        for key, v in self.agg_by_caller.items():
            if v > by_caller0.get(key, 0.0):
                selfs[key] = v - by_caller0.get(key, 0.0)
        return out, wrapped, selfs

    def write(self, path, tasks):
        """Spans as JSON lines, one per span, with the task each belongs to."""
        with open(path, "w") as fh:
            for task, first, last in tasks:
                for sid, parent, name, t0, t1, child, items in self.spans[first:last]:
                    fh.write(json.dumps({
                        "id": sid, "parent": parent, "task": task, "name": name,
                        "start": t0, "end": t1, "self_s": t1 - t0 - child,
                        "items": items,
                    }) + "\n")


def wrapper_cost(n=20000):
    """Seconds one span and one aggregate wrapper add to a call."""

    def noop():
        return None

    def per_call(f):
        t0 = _clock()
        for _ in range(n):
            f()
        return (_clock() - t0) / n

    probe = Tracer()
    probe.active = True
    span = probe._span_wrapper(noop, "probe", None)
    agg = probe._agg_wrapper(noop, "probe", None)
    base = min(per_call(noop) for _ in range(3))
    return {
        "span": max(min(per_call(span) for _ in range(3)) - base, 0.0),
        "agg": max(min(per_call(agg) for _ in range(3)) - base, 0.0),
    }
