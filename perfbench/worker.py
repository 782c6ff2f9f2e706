"""One fresh interpreter of the benchmark.

    python perfbench/worker.py api --workload q-exact --seed 3 --pass-index 0 \\
        --out result.json [--trace spans.bin] [--only QID ...]
    python perfbench/worker.py gen --seed 3 --pass-index 0 --dir files/
    python perfbench/worker.py cli --out result.json --trace spans.bin -- ARGV
    python perfbench/worker.py warmup

``api`` generates the inputs of one pass and asks every question of the
workload once per input class, in order; ``gen`` writes the CLI input
files and a manifest; ``cli`` runs ``gradlie.cli.main(ARGV)`` in-process
under the tracer.  Results go to ``--out`` as JSON; stdout stays unused.
Run with ``PYTHONPATH=src`` from the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import time


def _change_json(change):
    return {k: [[str(x) for x in row] for row in m] for k, m in change.items()}


def context_json(inst):
    """What check.Context needs to read witnesses of this instance."""
    obj = inst.obj
    if hasattr(obj, "names_plus"):
        names = {"plus": list(obj.names_plus), "minus": list(obj.names_minus)}
    else:
        names = list(obj.names)
    return {"change": _change_json(inst.change), "p": obj.field.p,
            "degrees": list(getattr(obj, "degrees", ()) or ()) or None,
            "names": names}


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def run_api(args):
    import check
    import expected
    import inputs
    import questions
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    plan = {cls: [q for q in workloads.questions(args.workload, cls)
                  if not args.only or workloads.qid(*q) in args.only]
            for cls in workloads.CLASSES}
    made = {(cls, inst, fld): inputs.generate(inst, fld, cls, args.seed,
                                              args.pass_index)
            for cls, qs in plan.items() for _k, inst, _e, fld in qs}

    walls, raw = {}, []
    t_first = time.monotonic()
    if tracer:
        tracer.active = True
    for cls in workloads.CLASSES:
        t_cls = time.perf_counter()
        for kind, inst, extra, fld in plan[cls]:
            it = made[(cls, inst, fld)]
            t0 = time.perf_counter()
            try:
                result = questions.ASK[kind](it, extra)
                error = None
            except Exception as exc:  # recorded and checked, never fatal
                result, error = None, exc
            raw.append((cls, kind, inst, extra, fld, time.perf_counter() - t0,
                        result, error))
        walls[cls] = time.perf_counter() - t_cls
    if tracer:
        tracer.active = False
        tracer.dump(args.trace)

    out = []
    for cls, kind, inst, extra, fld, secs, result, error in raw:
        it = made[(cls, inst, fld)]
        if error is None:
            outcome = {"answer": questions.record(kind, it, result)}
        else:
            outcome = {"error": type(error).__name__, "message": str(error)}
        q = workloads.qid(kind, inst, extra, fld)
        want, _why = expected.EXPECTED[q]
        ctx = check.Context(**context_json(it))
        status, message = check.check_api(kind, want, outcome, ctx)
        out.append({"qid": q, "cls": cls, "seconds": secs, "outcome": outcome,
                    "status": status, "message": message,
                    "crashed": error is not None
                    and type(error).__name__ not in check.UNDECIDED_ERRORS})
    _write(args.out, {"t_first": t_first, "walls": walls, "questions": out})


def run_gen(args):
    import gradlie
    import inputs
    import workloads

    os.makedirs(args.dir, exist_ok=True)
    manifest = {}
    for cls in workloads.CLASSES:
        for _cmd, inst, mark, fld in workloads.CLI_GALLERY:
            it = inputs.generate(inst, fld, cls, args.seed, args.pass_index)
            name = workloads.cli_file_name(cls, inst, mark, fld)
            text = gradlie.serialize_algebra(it.obj, it.marks.get(mark))
            with open(os.path.join(args.dir, name), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
            manifest[name] = context_json(it)
    _write(os.path.join(args.dir, "manifest.json"), manifest)


def run_cli(args):
    import gradlie.cli
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    tracer.active = True
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gradlie.cli.main(args.argv)
    tracer.active = False
    tracer.dump(args.trace)
    _write(args.out, {"exit": code, "stdout": out.getvalue(),
                      "stderr": err.getvalue()})


def run_warmup(args):
    import gradlie  # noqa: F401
    import check  # noqa: F401
    import expected  # noqa: F401
    import inputs  # noqa: F401
    import questions  # noqa: F401
    import tracer  # noqa: F401


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    a = sub.add_parser("api")
    a.add_argument("--workload", required=True)
    a.add_argument("--seed", type=int, required=True)
    a.add_argument("--pass-index", type=int, default=0)
    a.add_argument("--out", required=True)
    a.add_argument("--trace")
    a.add_argument("--only", nargs="*")
    a.set_defaults(fn=run_api)
    g = sub.add_parser("gen")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--pass-index", type=int, default=0)
    g.add_argument("--dir", required=True)
    g.set_defaults(fn=run_gen)
    c = sub.add_parser("cli")
    c.add_argument("--out", required=True)
    c.add_argument("--trace", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    c.set_defaults(fn=run_cli)
    w = sub.add_parser("warmup")
    w.set_defaults(fn=run_warmup)
    args = p.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    args.fn(args)


if __name__ == "__main__":
    main()
