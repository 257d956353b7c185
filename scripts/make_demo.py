#!/usr/bin/env python3
"""Build a self-contained demo workspace for the matrix runner.

Writes a two-author reference corpus, a held-out candidate text, and a
run.json grid description:

    demo/
      corpus/ashford/*.txt
      corpus/bellamy/*.txt
      candidate.txt
      run.json

Usage: python scripts/make_demo.py [DEST] [--seed N]
Then:  stylocloak matrix --config DEST/run.json --format markdown
"""

import argparse
import json
from pathlib import Path

from stylocloak.synthcorpus import STYLE_A, candidate_for, two_author_corpus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dest", nargs="?", default="demo")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dest = Path(args.dest)
    corpus = two_author_corpus(args.seed)
    for doc in corpus.documents:
        path = dest / "corpus" / doc.id
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(doc.text, encoding="utf-8", newline="")

    candidate = candidate_for(STYLE_A, seed=args.seed, n_chars=5000)
    (dest / "candidate.txt").write_text(candidate.text, encoding="utf-8", newline="")

    run = {
        "corpus": "corpus",
        "candidate": "candidate.txt",
        "configs": list(range(1, 16)),
        "seed": args.seed,
        "payload": "MEETATDAWN",
        "k": 50,
        "strip": False,
    }
    (dest / "run.json").write_text(
        json.dumps(run, indent=2), encoding="utf-8", newline=""
    )
    print(f"demo workspace written to {dest}/ ({len(corpus.documents)} reference docs)")
    print(f"next: stylocloak matrix --config {dest}/run.json --format markdown")


if __name__ == "__main__":
    main()
