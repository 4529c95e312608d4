"""Fixed reference workload that gauges the host's current speed.

The benchmark runs this as a child between pipeline iterations. It does the
kind of work a ucov command does (interpreter start, JSON encoding and
decoding, building and sorting dicts of tuples and frozensets) on fixed
data, imports nothing from the program, and so takes a constant amount of
work on every run: any change in its wall time is the host's.
"""

import json

data = [
    {
        "fqn": f"lib.p{i % 50}.T{i}",
        "signature": f"m{i % 7}(int,boolean)",
        "uses": ["TypeReference", "MethodInvocation", "Overriding"][: i % 3 + 1],
    }
    for i in range(15000)
]
text = json.dumps(data, indent=2)
index = {(e["fqn"], e["signature"]): frozenset(e["uses"]) for e in json.loads(text)}
order = sorted(index.items(), key=lambda kv: (kv[0][1], kv[0][0]))
