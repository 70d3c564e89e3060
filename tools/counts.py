"""Deterministic per-step work counts of the step loop, a witness beside the wall clock.

    python3 tools/counts.py [--root CHECKOUT]

For each preset of ``presets.PRESETS``, runs ``scenario._stream`` of the
checkout at ``--root`` (the one holding this script by default) for
``HORIZON_H`` hours at the preset's own step and record cadence, and prints
one JSON object.  The horizon is fixed, so counts from two checkouts, or from
two BENCH headers, compare.  Per preset it gives the steps the traced loop ran
and, per step:

- ``bytecodes``: the bytecodes the loop's own frame executes, counted by a
  ``sys.settrace`` hook that sets ``frame.f_trace_opcodes``;
- ``python_calls``: each resume of the loop's generator, and each Python
  function the loop calls, counted by a ``sys.setprofile`` hook;
- ``c_calls``: each C function the loop calls, by the same hook.

``c_calls_by_name`` totals the C calls of the whole run by name.  Bytecodes
and calls are counted in two runs, so neither hook counts the other.  The
work a called Python function does is one call, not its bytecodes.  Every
process on one Python version gives the same counts, so a change in them is
a change in the work done, whatever the host's speed.  Stdlib only.
"""

import argparse
import importlib
import json
import os
import platform
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HORIZON_H = 0.05  # 1,800 steps at the presets' 0.1 s step


def c_name(func) -> str:
    """``module.qualname`` of a C function, or its qualname when it has no module."""
    module = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", type(func).__name__)
    return f"{module}.{qualname}" if module else qualname


def count_loop(stream, config) -> dict:
    """The counts of one run of ``stream(config, None)``, the step loop of a scenario module."""
    loop = stream.__code__
    bytecodes = 0
    last_i = -1  # the loop's step index when its frame last returned or yielded

    def on_opcode(frame, event, arg):
        nonlocal bytecodes, last_i
        if event == "opcode":
            bytecodes += 1
        elif event == "return":
            last_i = frame.f_locals.get("i", last_i)
        return on_opcode

    def on_call(frame, event, arg):
        if frame.f_code is not loop:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_opcode

    sys.settrace(on_call)
    try:
        for _ in stream(config, None):
            pass
    finally:
        sys.settrace(None)

    python_calls = 0
    c_calls = Counter()

    def on_event(frame, event, arg):
        nonlocal python_calls
        if event == "call":
            caller = frame.f_back
            if frame.f_code is loop or (caller is not None and caller.f_code is loop):
                python_calls += 1
        elif event == "c_call" and frame.f_code is loop:
            c_calls[c_name(arg)] += 1

    sys.setprofile(on_event)
    try:
        for _ in stream(config, None):
            pass
    finally:
        sys.setprofile(None)

    steps = last_i + 1
    return {
        "steps": steps,
        "bytecodes": bytecodes / steps,
        "python_calls": python_calls / steps,
        "c_calls": sum(c_calls.values()) / steps,
        "c_calls_by_name": dict(sorted(c_calls.items())),
    }


def counts(root: str) -> dict:
    """Per preset, the counts of the step loop of the checkout at ``root`` over ``HORIZON_H`` hours."""
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    presets = importlib.import_module("hotlanes.presets")
    scenario = importlib.import_module("hotlanes.scenario")
    return {
        "python": platform.python_version(),
        "horizon_h": HORIZON_H,
        "per_step": {name: count_loop(scenario._stream, presets.apply_overrides(
            None, name, [f"simulation.horizon_h={HORIZON_H}"])) for name in presets.PRESETS},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=ROOT, help="the checkout whose src/ is counted")
    args = ap.parse_args(argv)
    print(json.dumps(counts(args.root), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
