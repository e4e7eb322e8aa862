#!/usr/bin/env python3
"""Digest-drift gate for the regenerated BENCH records.

    python3 scripts/digest_gate.py BENCH_replay.json
    python3 scripts/digest_gate.py BENCH_fleet_metrics.txt

Compares RECORD.tmp, the freshly regenerated record, with the checked-in
RECORD. For a .json record every key whose name contains "digest" is
compared, in document order, with its path; timings and other keys may
differ. Any other record (the metrics texts) must match byte for byte.
On a match RECORD.tmp replaces RECORD. On a mismatch the first differing
key (or byte offset) is printed, RECORD.tmp is left for inspection, and the
exit status is 1: a change that moves digests on purpose commits the
regenerated record (mv RECORD.tmp RECORD).
"""

import json
import os
import sys


def digest_entries(node, path=""):
    """(path, value) for every key containing "digest", in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            child = path + "/" + key
            if "digest" in key:
                yield child, value
            yield from digest_entries(value, child)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from digest_entries(value, "%s[%d]" % (path, i))


def first_json_difference(old_path, new_path):
    with open(old_path) as f:
        old = list(digest_entries(json.load(f)))
    with open(new_path) as f:
        new = list(digest_entries(json.load(f)))
    for (old_key, old_value), (new_key, new_value) in zip(old, new):
        if old_key != new_key:
            return "key %s is now %s" % (old_key, new_key)
        if old_value != new_value:
            return "%s: %s -> %s" % (old_key, json.dumps(old_value),
                                     json.dumps(new_value))
    if len(old) != len(new):
        shorter, longer = (old, new) if len(old) < len(new) else (new, old)
        return "%s: present in only one record" % longer[len(shorter)][0]
    return None


def first_byte_difference(old_path, new_path):
    with open(old_path, "rb") as f:
        old = f.read()
    with open(new_path, "rb") as f:
        new = f.read()
    if old == new:
        return None
    offset = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                  min(len(old), len(new)))
    line = old[:offset].count(b"\n") + 1
    return "first difference at byte %d (line %d)" % (offset, line)


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: digest_gate.py RECORD")
    record = sys.argv[1]
    fresh = record + ".tmp"
    if not os.path.isfile(fresh):
        sys.exit("digest gate: %s was not regenerated" % fresh)
    if os.path.isfile(record):
        compare = (first_json_difference if record.endswith(".json")
                   else first_byte_difference)
        difference = compare(record, fresh)
        if difference is not None:
            print("FAIL: %s drifted from the checked-in record: %s"
                  % (record, difference), file=sys.stderr)
            print("  (if intended: mv %s %s and commit it)" % (fresh, record),
                  file=sys.stderr)
            sys.exit(1)
    os.replace(fresh, record)


if __name__ == "__main__":
    main()
