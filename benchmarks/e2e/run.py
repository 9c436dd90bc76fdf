"""The end-to-end benchmark: paper-scale FNJV pipeline, streaming
re-curation and the multi-tenant service, with a traced per-layer
breakdown.

One workload, in this process::

    python3 benchmarks/e2e/run.py --workload fnjv_e2e --seed 2013 \\
        --seconds 25 --trace 0

prints each metric by name with its unit, and as its last line the
result object ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  It exits non-zero when an oracle rejects the outputs.

Every workload, each in its own fresh subprocess, one after another::

    python3 benchmarks/e2e/run.py --seed 2013 [--trace] [--out FILE]

``--trace`` adds a traced run of each workload after its untraced one.
``--out FILE`` appends the run documents (environment fingerprint,
metrics and per-workload detail) to FILE, the input of ``compare.py``;
``--out -`` prints them instead.  ``--spans FILE`` (one traced
workload) writes its spans as OTLP-shaped JSON.  Nothing else is
written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: prefix of the stdout line carrying a run document (``--out -``)
DOCUMENT_PREFIX = "document "


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import repro from {src}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"run.py: imported repro from {repro.__file__}, "
                         f"not from {src}")


def _git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": _git_commit(),
    }


def _print_metrics(title: str, metrics: dict[str, dict[str, Any]]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")


def _report(document: dict[str, Any]) -> None:
    kind = "per-layer" if document["trace"] else "end-to-end"
    print(f"{document['workload']}: seed {document['seed']}, "
          f"{document['seconds']:g} s budget, "
          f"{document['attempted']} operations, {document['failed']} failed, "
          f"correct={document['correct']}")
    if document["error"]:
        print(f"  oracle: {document['error']}")
    _print_metrics(f" {kind} metrics", document["metrics"])
    _print_metrics(" detail", document["detail"])


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict[str, Any]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def write_documents(out: str, documents: list[dict[str, Any]]) -> None:
    """Append ``documents`` to the ``runs`` of the file ``out``, or
    print each on one prefixed line when ``out`` is ``-``."""
    if out == "-":
        for document in documents:
            print(DOCUMENT_PREFIX + json.dumps(document, sort_keys=True))
        return
    path = Path(out)
    collected = (json.loads(path.read_text(encoding="utf-8"))
                 if path.exists() else {"benchmark": "benchmarks/e2e",
                                        "runs": []})
    collected["runs"].extend(documents)
    path.write_text(json.dumps(collected, sort_keys=True) + "\n",
                    encoding="utf-8")


def run_one(args: argparse.Namespace) -> int:
    import workloads

    document = workloads.run(args.workload, args.seed, args.seconds,
                             trace=bool(args.trace), spans_path=args.spans)
    document["env"] = fingerprint(args.seed)
    _report(document)
    if args.out is not None:
        write_documents(args.out, [document])
    print(_result_line(document["correct"], document["attempted"],
                       document["failed"], document["metrics"]))
    return 0 if document["correct"] else 1


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    documents = []
    ok = True
    for name in names:
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", repr(args.seconds),
                       "--trace", str(trace), "--out", "-"]
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, timeout=900, check=False)
            lines = child.stdout.splitlines()
            for line in lines[:-1]:
                if line.startswith(DOCUMENT_PREFIX):
                    documents.append(json.loads(line[len(DOCUMENT_PREFIX):]))
                else:
                    print(line)
            ok = ok and child.returncode == 0
            if child.returncode:
                print(f"{name}: exited with {child.returncode}")
    if args.out is not None:
        write_documents(args.out, documents)
    print(_result_line(
        ok and all(document["correct"] for document in documents),
        sum(document["attempted"] for document in documents),
        sum(document["failed"] for document in documents),
        {f"{document['workload']}.{metric}": value
         for document in documents
         for metric, value in document["metrics"].items()}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)")
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="measurement budget per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", help="append run documents here "
                                      "('-' prints them)")
    parser.add_argument("--spans", metavar="FILE",
                        help="write the traced run's spans here as "
                             "OTLP-shaped JSON (needs --workload, --trace 1)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.spans and not (args.workload and args.trace):
        parser.error("--spans needs --workload and --trace 1")
    _bootstrap()
    if args.workload:
        return run_one(args)
    return run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
