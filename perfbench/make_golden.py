"""Write golden.json: the exit code and stdout digest of every cli-mix pool
item, as the checked-out program produces them.

    python3 perfbench/make_golden.py

Run it only when the pool or the CLI's output changes on purpose, and
review the difference; the benchmark counts any later mismatch as a failed
operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import corpus
import workloads
from worker import call


def main():
    cli = workloads.load_cli()
    files, items = corpus.build_pool()
    digests = {}
    base = os.path.join(workloads.ROOT, ".bench_build", "perfbench")
    os.makedirs(base, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as work:
        os.chdir(work)
        for name, text in files.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        for item in items:
            code, out = call(cli.main, item.argv)
            digests[item.key] = [code,
                                 hashlib.sha256(out.encode("utf-8")).hexdigest()]
        os.chdir(workloads.ROOT)
    golden = {"pool_seed": corpus.POOL_SEED,
              "pool_digest": corpus.pool_digest(files, items),
              "items": digests}
    with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(digests), workloads.GOLDEN))


if __name__ == "__main__":
    main()
