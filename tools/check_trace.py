#!/usr/bin/env python3
"""Validates gsmb_cli --trace-out / --metrics-out artifacts.

Usage:
    check_trace.py [--prepare-layers] trace.json [metrics.json]

Asserts the trace is Chrome-trace JSON (chrome://tracing / Perfetto
loadable): a `traceEvents` array of complete events (`ph == "X"`) each
carrying name/ts/dur/pid/tid, whose span names cover every canonical
pipeline phase. With a metrics file, additionally asserts the registry
export carries the pipeline counters as exact integers.

With --prepare-layers, additionally asserts that a `prepare` span holds
perfbench's preparation layers, in order and on its thread:
datasets.load, blocking, stream.index_count and obs.digest, with
schemes.build, blocking.purge and blocking.filter inside `blocking`.

Exit status: 0 and "trace OK" on success, 1 with a diagnostic otherwise.
"""

import json
import sys

CANONICAL_PHASES = {"prepare", "blocking", "pairs", "features", "train",
                    "classify", "prune"}
REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")
REQUIRED_COUNTERS = ("pairs.generated", "pairs.retained")
PREPARE_LAYERS = {
    "prepare": ("datasets.load", "blocking", "stream.index_count",
                "obs.digest"),
    "blocking": ("schemes.build", "blocking.purge", "blocking.filter"),
}
# Slack for the microsecond timestamps' floating-point rounding.
EPSILON_US = 1e-3


def fail(message):
    print("check_trace: %s" % message)
    return 1


def check_trace(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail("%s: traceEvents missing or empty" % path)
    names = set()
    for event in events:
        for key in REQUIRED_EVENT_KEYS:
            if key not in event:
                return fail("%s: event %r lacks %r" % (path, event, key))
        if event["ph"] != "X":
            return fail("%s: non-complete event %r" % (path, event))
        if event["dur"] < 0 or event["ts"] < 0:
            return fail("%s: negative time in %r" % (path, event))
        names.add(event["name"])
    missing = CANONICAL_PHASES - names
    if missing:
        return fail("%s: canonical phase spans missing: %s"
                    % (path, ", ".join(sorted(missing))))
    print("trace OK: %d events, phases %s" % (
        len(events), ", ".join(sorted(names & CANONICAL_PHASES))))
    return 0


def inside(child, parent):
    return (child["tid"] == parent["tid"]
            and child["ts"] >= parent["ts"] - EPSILON_US
            and child["ts"] + child["dur"]
            <= parent["ts"] + parent["dur"] + EPSILON_US)


def check_prepare_layers(path):
    with open(path, "r", encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    parent = None
    for name in ("prepare", "blocking"):
        candidates = [e for e in events if e["name"] == name
                      and (parent is None or inside(e, parent))]
        if not candidates:
            return fail("%s: no %r span%s" % (
                path, name, "" if parent is None else " inside 'prepare'"))
        parent = candidates[0]
        previous = None
        for layer in PREPARE_LAYERS[name]:
            found = [e for e in events
                     if e["name"] == layer and inside(e, parent)]
            if not found:
                return fail("%s: no %r span inside %r" % (path, layer, name))
            if previous is not None and found[0]["ts"] < previous["ts"]:
                return fail("%s: %r starts before %r"
                            % (path, layer, previous["name"]))
            previous = found[0]
    print("prepare layers OK: %s" % ", ".join(
        PREPARE_LAYERS["prepare"] + PREPARE_LAYERS["blocking"]))
    return 0


def check_metrics(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        return fail("%s: counters object missing" % path)
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            return fail("%s: counter %r missing" % (path, name))
        if not isinstance(counters[name], int):
            return fail("%s: counter %r is not an exact integer"
                        % (path, name))
    print("metrics OK: %d counters" % len(counters))
    return 0


def main(argv):
    args = argv[1:]
    prepare_layers = "--prepare-layers" in args
    args = [a for a in args if a != "--prepare-layers"]
    if len(args) not in (1, 2):
        print(__doc__)
        return 2
    status = check_trace(args[0])
    if status == 0 and prepare_layers:
        status = check_prepare_layers(args[0])
    if status == 0 and len(args) == 2:
        status = check_metrics(args[1])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
