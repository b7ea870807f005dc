"""Record the certificate digests that the certify workload checks at the
default seed, for its first ROUNDS rounds, so that certificate normal forms
stay byte-identical.

    python3 perfbench/record_digests.py

Run it only when a change is meant to alter certificates, and say so.
"""

import json

import worker  # puts the source tree on sys.path
import workloads

ROUNDS = 8

workloads.DIGESTS.unlink(missing_ok=True)  # record, do not check
digests = {}
for round_index in range(ROUNDS):
    ops = workloads.build("certify", workloads.DEFAULT_SEED, round_index)
    recorded = digests[str(round_index)] = {}
    for index, op in enumerate(ops):
        if op.kind != "fedder":
            cert = op.run()
            if not op.check(cert):
                raise SystemExit(f"check failed on {op.key}")
            recorded[str(index)] = workloads.cert_digest(cert)
workloads.DIGESTS.write_text(
    json.dumps({"certify": digests}, indent=1, sort_keys=True) + "\n",
    encoding="utf-8")
print(f"recorded digests of {ROUNDS} rounds in {workloads.DIGESTS}")
